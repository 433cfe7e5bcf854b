package core

import (
	"dmacp/internal/mesh"
	"dmacp/internal/reach"
)

// ReduceSyncs performs the transitive synchronization reduction of Section
// 4.5: a WaitFor arc p -> t is redundant when t is already ordered after p
// through the remaining arc structure — concretely, when some other
// producer q of t is reachable from p, so the handshake p -> q ... -> t
// already serializes the pair. Earlier revisions only eliminated arcs
// implied by two-step chains; backed by the chain-decomposed reachability
// index (internal/reach) the pass now removes every transitively implied
// arc, which is exactly the set verify.Check's sync-sufficiency analysis
// flags — after DedupeWaits + ReduceSyncs the verifier reports zero
// redundant arcs.
//
// Simultaneous removal is safe: in a DAG the transitive reduction is
// unique, and any implying path that itself crosses a redundant arc can be
// rerouted through the arcs that imply it. Removing an implied arc never
// changes the partial order of the task DAG (the closure-preservation
// tests in core prove it, and the race detector re-proves it for every
// shipped schedule); it only avoids charging the handshake twice. The
// function rewrites each task's WaitFor/WaitHops in place and returns the
// number of arcs removed. A cyclic wait graph (already a deadlock
// violation) is left untouched.
func ReduceSyncs(tasks []*Task) int {
	return reduceSyncs(tasks, min(OccupiedNodes(tasks), reach.DefaultMaxChains))
}

// reduceSyncs is ReduceSyncs with an explicit indexed-chain budget. The
// arc-only graph has no program-order edges, so its greedy chain cover has
// many short chains; ReduceSyncs indexes one chain per occupied node and
// answers the rest by the index's exact BFS fallback. Any budget gives the
// same answers; the tests compare it against DefaultMaxChains.
func reduceSyncs(tasks []*Task, maxChains int) int {
	n := len(tasks)
	b := reach.NewBuilder(n)
	hasMulti := false
	for i, t := range tasks {
		for _, p := range t.WaitFor {
			if p >= 0 && p < n && p != i {
				b.Edge(p, i)
			}
		}
		if len(t.WaitFor) >= 2 {
			hasMulti = true
		}
	}
	if !hasMulti {
		return 0
	}
	ix, _ := b.Build(maxChains)
	if ix == nil {
		return 0
	}
	removed := 0
	for _, t := range tasks {
		if len(t.WaitFor) < 2 {
			continue
		}
		keepIDs := t.WaitFor[:0]
		keepHops := t.WaitHops[:0]
		for i, p := range t.WaitFor {
			red := false
			for j, q := range t.WaitFor {
				if j == i {
					continue
				}
				// Mirrors verify.checkRedundancy: an exact duplicate keeps
				// its last copy; p != q uses strict reachability p -> q.
				if (p == q && j > i) || (p != q && ix.Reaches(p, q)) {
					red = true
					break
				}
			}
			if red {
				removed++
				continue
			}
			keepIDs = append(keepIDs, p)
			keepHops = append(keepHops, t.WaitHops[i])
		}
		t.WaitFor = keepIDs
		t.WaitHops = keepHops
	}
	return removed
}

// DedupeWaits drops duplicate producer arcs on each task (the same producer
// registered through both a tree edge and a dependence), keeping the first.
func DedupeWaits(tasks []*Task) int {
	removed := 0
	for _, t := range tasks {
		if len(t.WaitFor) < 2 {
			continue
		}
		seen := make(map[int]bool, len(t.WaitFor))
		keepIDs := t.WaitFor[:0]
		keepHops := t.WaitHops[:0]
		for i, p := range t.WaitFor {
			if seen[p] {
				removed++
				continue
			}
			seen[p] = true
			keepIDs = append(keepIDs, p)
			keepHops = append(keepHops, t.WaitHops[i])
		}
		t.WaitFor = keepIDs
		t.WaitHops = keepHops
	}
	return removed
}

// OccupiedNodes returns the number of distinct nodes the tasks run on: the
// chain count of a schedule's happens-before index, and the indexed-chain
// budget of its arc-only reachability index.
func OccupiedNodes(tasks []*Task) int {
	seen := make(map[mesh.NodeID]bool)
	for _, t := range tasks {
		seen[t.Node] = true
	}
	return len(seen)
}
