package core_test

import (
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/workloads"
)

// BenchmarkPartition times core.Partition on Barnes force (64 iterations,
// 16384 elements, fixed window 4) so the hot path can be profiled with the
// standard tooling.
func BenchmarkPartition(b *testing.B) {
	app, err := workloads.Build("Barnes", workloads.Scale{Iters: 64, Elems: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	nest := app.Nests[0]
	opts := core.DefaultOptions()
	opts.FixedWindow = 4
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Partition(app.Prog, nest, app.Store, opts); err != nil {
			b.Fatal(err)
		}
	}
}
