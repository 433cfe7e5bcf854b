package verify

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchQueries draws a fixed set of (a, b) pairs so build and query
// benchmarks measure the same workload across representations.
func benchQueries(rng *rand.Rand, n, count int) [][2]int {
	qs := make([][2]int, count)
	for i := range qs {
		qs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return qs
}

// BenchmarkClosure measures construction and Ordered-query cost of the
// chain-decomposed interval index against the old bitset closure on
// schedule-shaped DAGs. The interval arms build the happens-before index
// (WaitFor arcs plus per-node program order, one chain per node); the
// arc-only arms build the sync-sufficiency index (WaitFor arcs alone, at
// most one indexed chain per node, the rest answered by BFS). The bitset
// arm stops at 10k tasks: at 100k its ancestor matrix alone is 100k²/8 =
// 1.25 GB, which is precisely why it was replaced (the interval index at
// 100k is a few MB of labels).
func BenchmarkClosure(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		rng := rand.New(rand.NewSource(17))
		tasks := randomSchedule(rng, n, 36)
		qs := benchQueries(rng, n, 4096)

		for _, arm := range []struct {
			name          string
			sameNodeOrder bool
		}{{"interval", true}, {"arconly", false}} {
			b.Run(fmt.Sprintf("%s/build/%d", arm.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if c, _ := buildClosureBounded(tasks, arm.sameNodeOrder, 0); c == nil {
						b.Fatal("unexpected cycle")
					}
				}
			})
			b.Run(fmt.Sprintf("%s/query/%d", arm.name, n), func(b *testing.B) {
				c, _ := buildClosureBounded(tasks, arm.sameNodeOrder, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					q := qs[i%len(qs)]
					c.Ordered(q[0], q[1])
				}
			})
		}
		if n > 10_000 {
			continue
		}
		b.Run(fmt.Sprintf("bitset/build/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if c, _ := buildBitsetClosure(tasks, true); c == nil {
					b.Fatal("unexpected cycle")
				}
			}
		})
		b.Run(fmt.Sprintf("bitset/query/%d", n), func(b *testing.B) {
			c, _ := buildBitsetClosure(tasks, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				c.Ordered(q[0], q[1])
			}
		})
	}
}
