package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dmacp/internal/mesh"
)

// diffSchedules partitions the kernels the differential tests repair: the
// default two-statement nest plus kernels with loop-carried RAW, WAR and
// accumulator dependences, so the dependence replay has orderings to
// restore.
func diffSchedules(t *testing.T) ([]*Schedule, Options) {
	t.Helper()
	kernels := [][]string{
		nil, // smallNest's default
		{"A(i+1) = A(i)+B(i)", "B(i) = A(i)*C(i)"},
		{"S(0) = S(0)+A(i)*B(i)", "A(i) = S(0)+C(i)"},
		{"X(i) = Y(i+1)+Z(i)", "Y(i) = X(i)-Z(i+2)"},
	}
	opts := testOpts()
	opts.FixedWindow = 4
	var out []*Schedule
	for _, srcs := range kernels {
		prog, nest, store := smallNest(t, 48, srcs...)
		res, err := Partition(prog, nest, store, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.Schedule)
	}
	return out, opts
}

// repairAutoRef is the AssignAuto selection as a plain reference: the
// batched min-cost and the greedy repair each run on their own clone, the
// smaller MovementAfter wins, ties and double failures go to min-cost.
func repairAutoRef(s *Schedule, m *mesh.Mesh, f *mesh.FaultSet, o RepairOptions) (*RepairReport, error) {
	oMC, oGr := o, o
	oMC.Strategy, oGr.Strategy = AssignMinCost, AssignGreedy
	cMC := s.Clone()
	repMC, errMC := repairSchedule(cMC, m, f, oMC)
	cGr := s.Clone()
	repGr, errGr := repairSchedule(cGr, m, f, oGr)
	switch {
	case errMC == nil && (errGr != nil || repMC.MovementAfter <= repGr.MovementAfter):
		*s = *cMC
		return repMC, nil
	case errGr == nil:
		*s = *cGr
		return repGr, nil
	default:
		return nil, errMC
	}
}

// TestRepairAutoMatchesReference checks RepairSchedule's AssignAuto path —
// one repair when nothing strands, greedy on a clone and min-cost in place
// otherwise — against the two-clone reference over random fault sets: the
// schedule, the report and the error must be identical.
func TestRepairAutoMatchesReference(t *testing.T) {
	scheds, opts := diffSchedules(t)
	m := opts.Mesh
	allMCs := mesh.NewFaultSet()
	for _, mc := range m.MemoryControllers() {
		allMCs.KillTile(mc)
	}
	type faults struct {
		name string
		f    *mesh.FaultSet
	}
	var sets []faults
	for seed := int64(1); seed <= 12; seed++ {
		sets = append(sets,
			faults{fmt.Sprintf("links seed=%d", seed), mesh.Inject(m, seed, 1+int(seed%4), 0, 0, true)},
			faults{fmt.Sprintf("links+tiles seed=%d", seed), mesh.Inject(m, seed, 2, 0, 1+int(seed%3), true)},
			faults{fmt.Sprintf("links+routers seed=%d", seed), mesh.Inject(m, seed, 1, 1+int(seed%2), 0, true)})
	}
	sets = append(sets, faults{"every MC dead", allMCs})

	o := RepairOptions{LoadThreshold: opts.LoadThreshold}
	seen := map[string]int{}
	for si, s := range scheds {
		for _, fs := range sets {
			got, want := s.Clone(), s.Clone()
			grep, gerr := RepairSchedule(got, m, fs.f, o)
			wrep, werr := repairAutoRef(want, m, fs.f, o)
			name := fmt.Sprintf("schedule %d, %s", si, fs.name)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
			}
			if gerr != nil {
				seen["error"]++
				continue
			}
			if !reflect.DeepEqual(grep, wrep) {
				t.Fatalf("%s: report %+v, reference %+v", name, *grep, *wrep)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: repaired schedule differs from the reference", name)
			}
			seen[grep.Strategy]++
		}
	}
	t.Logf("strategies: %v", seen)
	// Both branches of the selection must have been exercised.
	for _, k := range []string{"none", "error"} {
		if seen[k] == 0 {
			t.Errorf("no fault set produced strategy %q (saw %v)", k, seen)
		}
	}
	if seen["mincost"]+seen["greedy"] == 0 {
		t.Errorf("no fault set stranded a task (saw %v)", seen)
	}
}

// reemitBitsetRef is the dependence replay as first written: an incremental
// n x n happens-before bitset and per-line maps. reemitDependenceArcs must
// add exactly the same arcs in exactly the same order.
func reemitBitsetRef(s *Schedule, dist [][]int) int {
	n := len(s.Tasks)
	words := (n + 63) / 64
	bits := make([]uint64, n*words)
	row := func(i int) []uint64 { return bits[i*words : (i+1)*words] }
	ordered := func(a, b int) bool { // a happens before b?
		return row(b)[a/64]&(1<<(uint(a)%64)) != 0
	}
	absorb := func(dst []uint64, p int) {
		src := row(p)
		for w := range dst {
			dst[w] |= src[w]
		}
		dst[p/64] |= 1 << (uint(p) % 64)
	}

	added := 0
	lastOnNode := make(map[mesh.NodeID]int)
	lastWrite := make(map[uint64]int)
	readers := make(map[uint64]map[mesh.NodeID]int)

	for i, t := range s.Tasks {
		r := row(i)
		for _, p := range t.WaitFor {
			absorb(r, p)
		}
		if prev, ok := lastOnNode[t.Node]; ok {
			absorb(r, prev)
		}
		need := func(p int) {
			if p == i || ordered(p, i) {
				return
			}
			t.addWait(p, dist[s.Tasks[p].Node][t.Node])
			added++
			absorb(r, p)
		}

		for _, fe := range t.Fetches {
			if w, ok := lastWrite[fe.Line]; ok {
				need(w) // RAW
			}
			if readers[fe.Line] == nil {
				readers[fe.Line] = make(map[mesh.NodeID]int)
			}
			readers[fe.Line][t.Node] = i
		}
		if t.IsRoot {
			line := t.ResultLine
			if w, ok := lastWrite[line]; ok {
				need(w) // WAW
			}
			if rs := readers[line]; len(rs) > 0 {
				nodes := make([]mesh.NodeID, 0, len(rs))
				for nd := range rs {
					nodes = append(nodes, nd)
				}
				sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
				for _, nd := range nodes {
					need(rs[nd]) // WAR
				}
			}
			delete(readers, line)
			lastWrite[line] = i
		}
		lastOnNode[t.Node] = i
	}
	return added
}

// TestReemitMatchesBitsetReference migrates random tasks to random nodes
// and drops random arcs, then checks the vector-clock replay against the
// bitset reference: the same number of added arcs and identical WaitFor and
// WaitHops on every task.
func TestReemitMatchesBitsetReference(t *testing.T) {
	scheds, opts := diffSchedules(t)
	m := opts.Mesh
	dist := m.AllDistancesAvoiding(nil)
	rng := rand.New(rand.NewSource(7))
	total := 0
	for si, s := range scheds {
		for trial := 0; trial < 25; trial++ {
			c := s.Clone()
			moveP, dropP := rng.Float64()*0.5, rng.Float64()*0.6
			for _, tk := range c.Tasks {
				if rng.Float64() < moveP {
					tk.Node = mesh.NodeID(rng.Intn(m.Nodes()))
				}
				keepFor, keepHops := tk.WaitFor[:0], tk.WaitHops[:0]
				for j, p := range tk.WaitFor {
					if rng.Float64() >= dropP {
						keepFor, keepHops = append(keepFor, p), append(keepHops, tk.WaitHops[j])
					}
				}
				tk.WaitFor, tk.WaitHops = keepFor, keepHops
			}
			for _, tk := range c.Tasks {
				for j, p := range tk.WaitFor {
					tk.WaitHops[j] = dist[c.Tasks[p].Node][tk.Node]
				}
			}
			got, want := c.Clone(), c.Clone()
			ga, wa := reemitDependenceArcs(got, dist), reemitBitsetRef(want, dist)
			if ga != wa {
				t.Fatalf("schedule %d trial %d: added %d arcs, reference %d", si, trial, ga, wa)
			}
			total += ga
			for i := range got.Tasks {
				g, w := got.Tasks[i], want.Tasks[i]
				if !reflect.DeepEqual(g.WaitFor, w.WaitFor) || !reflect.DeepEqual(g.WaitHops, w.WaitHops) {
					t.Fatalf("schedule %d trial %d task %d: WaitFor %v hops %v, reference %v hops %v",
						si, trial, i, g.WaitFor, g.WaitHops, w.WaitFor, w.WaitHops)
				}
			}
		}
	}
	t.Logf("%d arcs added", total)
	if total == 0 {
		t.Fatal("no trial needed an arc: the comparison proved nothing")
	}
}
