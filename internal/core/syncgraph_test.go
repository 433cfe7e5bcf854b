package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dmacp/internal/mesh"
	"dmacp/internal/reach"
)

// scheduleDAG builds a schedule-shaped task list: every task after the first
// few waits on 2–4 recent producers (fan-in >= 2, so ReduceSyncs has arcs to
// examine), with duplicated and transitively implied arcs mixed in, spread
// over the given number of nodes.
func scheduleDAG(rng *rand.Rand, n, nodes int) []*Task {
	tasks := make([]*Task, n)
	for i := range tasks {
		t := &Task{ID: i, Node: mesh.NodeID(rng.Intn(nodes))}
		if i >= 2 {
			for k := 2 + rng.Intn(3); k > 0; k-- {
				t.WaitFor = append(t.WaitFor, i-1-rng.Intn(min(i, 24)))
				t.WaitHops = append(t.WaitHops, rng.Intn(8))
			}
		}
		tasks[i] = t
	}
	return tasks
}

// TestReduceSyncsNodeBudgetExact: the node-sized chain budget ReduceSyncs
// indexes its arc-only graph with removes exactly the arcs the full
// DefaultMaxChains budget removes — identical WaitFor/WaitHops, same count.
func TestReduceSyncsNodeBudgetExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	residue, removed := 0, 0 // trials with chains past the budget; arcs removed
	for trial := 0; trial < 30; trial++ {
		n := 40 + rng.Intn(400)
		nodes := []int{2, 6, 16, 36}[trial%4]
		tasks := scheduleDAG(rng, n, nodes)
		full, small := cloneTaskArcs(tasks), cloneTaskArcs(tasks)
		wantRemoved := reduceSyncs(full, reach.DefaultMaxChains)
		gotRemoved := ReduceSyncs(small)
		removed += gotRemoved
		b := reach.NewBuilder(n)
		for i, tk := range tasks {
			for _, p := range tk.WaitFor {
				b.Edge(p, i)
			}
		}
		if ix, _ := b.Build(0); ix != nil {
			if total, _ := ix.Chains(); total > nodes {
				residue++
			}
		}
		if gotRemoved != wantRemoved {
			t.Fatalf("trial %d (n=%d, %d nodes): node budget removed %d arcs, DefaultMaxChains %d",
				trial, n, nodes, gotRemoved, wantRemoved)
		}
		for i := range tasks {
			if !reflect.DeepEqual(small[i].WaitFor, full[i].WaitFor) || !reflect.DeepEqual(small[i].WaitHops, full[i].WaitHops) {
				t.Fatalf("trial %d task %d: node budget kept %v/%v, DefaultMaxChains %v/%v",
					trial, i, small[i].WaitFor, small[i].WaitHops, full[i].WaitFor, full[i].WaitHops)
			}
		}
	}
	if residue == 0 || removed == 0 {
		t.Fatalf("untested: %d trials left chains to BFS, %d arcs removed", residue, removed)
	}
}

func cloneTaskArcs(tasks []*Task) []*Task {
	out := make([]*Task, len(tasks))
	for i, t := range tasks {
		c := *t
		c.WaitFor = append([]int(nil), t.WaitFor...)
		c.WaitHops = append([]int(nil), t.WaitHops...)
		out[i] = &c
	}
	return out
}
