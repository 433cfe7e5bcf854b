package core_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/predictor"
	"dmacp/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenOpts are the evaluation options of the experiment engine: the
// default platform with fusion on and the sampled L2 hit/miss predictor.
func goldenOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Predictor = predictor.MustNew(predictor.Config{
		L2TotalBytes: opts.L2BankBytes * uint64(opts.Mesh.Nodes()),
		LineBytes:    opts.Layout.LineBytes,
		Ways:         opts.L2Ways,
		SampleMod:    8,
	})
	return opts
}

// digest writes little-endian words into an FNV-64a hash.
type digest struct{ h hash.Hash64 }

func (d digest) u(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) i(v int) { d.u(uint64(int64(v))) }

func (d digest) b(v bool) {
	if v {
		d.u(1)
	} else {
		d.u(0)
	}
}

func (d digest) s(v string) {
	d.i(len(v))
	d.h.Write([]byte(v))
}

// tasks hashes every task — placement, cost, identity, arcs and fetches.
func (d digest) tasks(ts []*core.Task) {
	d.i(len(ts))
	for _, t := range ts {
		d.i(int(t.Node))
		d.u(math.Float64bits(t.Ops))
		d.i(t.Stmt)
		d.i(t.Iter)
		d.i(t.Window)
		d.b(t.IsRoot)
		d.u(t.ResultLine)
		d.i(len(t.WaitFor))
		for k, p := range t.WaitFor {
			d.i(p)
			d.i(t.WaitHops[k])
		}
		d.i(len(t.Fetches))
		for _, f := range t.Fetches {
			d.i(int(f.From))
			d.u(f.Line)
			d.b(f.L2Miss)
			d.b(f.L1Hit)
		}
	}
}

// resultDigest hashes every emitted task plus the translation table and the
// line labels, both in key order.
func resultDigest(res *core.Result) uint64 {
	d := digest{fnv.New64a()}
	d.tasks(res.Schedule.Tasks)
	pages := make([]uint64, 0, len(res.Translations))
	for va := range res.Translations {
		pages = append(pages, va)
	}
	sort.Slice(pages, func(a, b int) bool { return pages[a] < pages[b] })
	d.i(len(pages))
	for _, va := range pages {
		d.u(va)
		d.u(res.Translations[va])
	}
	lines := make([]uint64, 0, len(res.LineLabels))
	for l := range res.LineLabels {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(a, b int) bool { return lines[a] < lines[b] })
	d.i(len(lines))
	for _, l := range lines {
		d.u(l)
		d.s(res.LineLabels[l])
	}
	return d.h.Sum64()
}

// goldenLine renders one partitioned nest: the window sweep, the chosen
// pass's statistics, sync counts and offload mix, the location figures and
// the schedule digest.
func goldenLine(res *core.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s window=%d fused=%v inspector=%v mv=[",
		res.Nest.Name, res.WindowSize, res.FusedNest != nil, res.UsedInspector)
	sizes := make([]int, 0, len(res.MovementBySize))
	for w := range res.MovementBySize {
		sizes = append(sizes, w)
	}
	sort.Ints(sizes)
	for k, w := range sizes {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", w, res.MovementBySize[w])
	}
	b.WriteString("] l1=[")
	for k, w := range sizes {
		if k > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%v", w, res.L1HitBySize[w])
	}
	fmt.Fprintf(&b, "] stats=%+v syncs=%d/%d analyzable=%v predictor=%v offload=%v digest=%016x",
		res.Stats, res.Schedule.SyncsBefore, res.Schedule.SyncsAfter,
		res.AnalyzableFraction, res.PredictorAccuracy, res.OffloadMix, resultDigest(res))
	return b.String()
}

// TestPartitionGolden pins the partitioner's output on every nest of all 12
// workloads at test scale, under the experiment engine's options, against
// testdata/partition.golden. After an intended output change, regenerate it
// with `go test ./internal/core -run TestPartitionGolden -update` and review
// the diff.
func TestPartitionGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, workloads.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range app.Nests {
			res, err := core.Partition(app.Prog, nest, app.Store, goldenOpts())
			if err != nil {
				t.Fatalf("%s: %v", nest.Name, err)
			}
			b.WriteString(goldenLine(res))
			b.WriteByte('\n')
		}
	}
	checkGolden(t, "partition.golden", b.String())
}

// checkGolden compares got with testdata/<name>, or rewrites the file under
// -update, reporting the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for k := 0; k < len(gl) && k < len(wl); k++ {
			if gl[k] != wl[k] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, k+1, gl[k], wl[k])
			}
		}
		t.Fatalf("output differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
