package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dmacp/internal/cache"
	"dmacp/internal/fusion"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/workloads"
)

// TestFrozenPlanMatchesBuild pins what the window sweep's plan pre-pass
// rests on: for every instance of every nest of the 12 workloads at test
// scale — fused and inspector nests included, located exactly as Partition
// locates them — the frozen plan and analysis deep-equal a fresh buildPlan
// and Analyze of the instance with no reuse nodes.
func TestFrozenPlanMatchesBuild(t *testing.T) {
	opts := withPredictor(DefaultOptions())
	dt := opts.Mesh.DistanceTable()
	var fused, inspected int
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, workloads.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range app.Nests {
			sn := nest
			if fr := fusion.Coarsen(app.Prog, nest, fusion.Limits{
				L1Bytes: opts.L1Bytes, LineBytes: opts.Layout.LineBytes}); fr.Merged > 0 {
				sn = fr.Nest
				fused++
			}
			if ir.HasMayDeps(sn.Body) {
				if err := ir.NewInspector(app.Prog, sn).Run(app.Store); err != nil {
					t.Fatal(err)
				}
				inspected++
			}
			tr, err := buildTrace(app.Prog, sn, app.Store, &opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.freezePlans(&opts); err != nil {
				t.Fatal(err)
			}
			for k := range tr.store {
				ps := &tr.pre[k%len(tr.pre)]
				lls := tr.leaves[tr.leafLo[k]:tr.leafLo[k+1]]
				plan := buildPlan(dt, ps.set, func(r *ir.Ref) operandInfo {
					return operandInfo{loc: lls[ps.leafOf[r]]}
				}, tr.store[k])
				an := plan.Analyze()
				an.adj, an.visited, an.stack, an.computes = nil, nil, nil, nil
				fp := &tr.plans[k/planChunk][k%planChunk]
				if !reflect.DeepEqual(&fp.plan, plan) {
					t.Fatalf("%s instance %d: frozen plan\n%+v\nbuilt\n%+v", sn.Name, k, fp.plan, *plan)
				}
				if !reflect.DeepEqual(&fp.an, an) {
					t.Fatalf("%s instance %d: frozen analysis\n%+v\nbuilt\n%+v", sn.Name, k, fp.an, *an)
				}
			}
		}
	}
	if fused == 0 || inspected == 0 {
		t.Fatalf("%d fused and %d inspector nests; the suite must cover both", fused, inspected)
	}
}

// TestInvalidateHoldersOnly drives random fetch and store streams through
// the shadow L1s on 4-, 36- and 81-node meshes (81 nodes take two bitset
// words per line) with L1s small enough that evictions leave stale holder
// bits. After every store, each L1's contents and statistics must equal
// those of a reference that write-invalidates the line in every non-home L1.
func TestInvalidateHoldersOnly(t *testing.T) {
	cfg := cache.Config{SizeBytes: 256, LineBytes: 64, Ways: 2} // 2 sets x 2 ways
	const lines = 24
	for _, nodes := range []int{4, 36, 81} {
		rng := rand.New(rand.NewSource(int64(nodes)))
		got := newShadowL1s(nodes, lines, cfg)
		want := make([]*cache.Cache, nodes)
		for i := range want {
			want[i] = cache.MustNew(cfg)
		}
		for op := 0; op < 20000; op++ {
			s := int32(rng.Intn(lines))
			line := uint64(s) * cfg.LineBytes
			n := mesh.NodeID(rng.Intn(nodes))
			if rng.Intn(4) != 0 {
				if got.access(n, s, line) != want[n].Access(line) {
					t.Fatalf("%d nodes, op %d: node %d fetch of line %d hit differs", nodes, op, n, s)
				}
				continue
			}
			got.store(n, s, line)
			for i, c := range want {
				if mesh.NodeID(i) != n {
					c.Invalidate(line)
				}
			}
			want[n].Access(line)
			for i, c := range want {
				if got.c[i].Stats() != c.Stats() || got.c[i].Lines() != c.Lines() {
					t.Fatalf("%d nodes, op %d: node %d stats %+v/%d lines, want %+v/%d",
						nodes, op, i, got.c[i].Stats(), got.c[i].Lines(), c.Stats(), c.Lines())
				}
				for l := uint64(0); l < lines; l++ {
					if got.c[i].Contains(l*cfg.LineBytes) != c.Contains(l*cfg.LineBytes) {
						t.Fatalf("%d nodes, op %d: node %d residency of line %d differs", nodes, op, i, l)
					}
				}
			}
		}
	}
}
