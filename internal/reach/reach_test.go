package reach

import (
	"math/rand"
	"testing"
)

// naiveReach computes reachability by per-query DFS — the oracle.
type naiveReach struct {
	n     int
	succs [][]int
}

func (nr *naiveReach) reaches(a, b int) bool {
	if a == b {
		return a >= 0 && a < nr.n
	}
	if a < 0 || b < 0 || a >= nr.n || b >= nr.n {
		return false
	}
	seen := make([]bool, nr.n)
	stack := []int{a}
	seen[a] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range nr.succs[u] {
			if s == b {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func TestChainAndDiamond(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 and a diamond 0 -> {4,5} -> 6.
	b := NewBuilder(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {0, 5}, {4, 6}, {5, 6}} {
		b.Edge(e[0], e[1])
	}
	ix, stuck := b.Build(0)
	if ix == nil {
		t.Fatalf("unexpected cycle: stuck=%v", stuck)
	}
	want := map[[2]int]bool{
		{0, 3}: true, {1, 3}: true, {3, 0}: false,
		{0, 6}: true, {4, 6}: true, {5, 6}: true,
		{4, 5}: false, {1, 6}: false, {6, 6}: true,
	}
	for q, w := range want {
		if got := ix.Reaches(q[0], q[1]); got != w {
			t.Errorf("Reaches(%d,%d) = %v, want %v", q[0], q[1], got, w)
		}
	}
}

func TestCycleReported(t *testing.T) {
	b := NewBuilder(4)
	b.Edge(0, 1)
	b.Edge(1, 2)
	b.Edge(2, 1) // cycle 1 <-> 2
	b.Edge(2, 3)
	ix, stuck := b.Build(0)
	if ix != nil {
		t.Fatalf("expected nil index on cyclic graph")
	}
	if len(stuck) == 0 {
		t.Fatalf("expected stuck vertices")
	}
	for _, v := range stuck {
		if v == 0 {
			t.Errorf("vertex 0 is not behind the cycle but listed stuck")
		}
	}
}

func TestEdgeIgnoresBadEndpoints(t *testing.T) {
	b := NewBuilder(2)
	b.Edge(-1, 0)
	b.Edge(0, 5)
	b.Edge(1, 1)
	b.Edge(0, 1)
	ix, _ := b.Build(0)
	if ix == nil {
		t.Fatal("bad endpoints must not corrupt the graph")
	}
	if !ix.Reaches(0, 1) || ix.Reaches(1, 0) {
		t.Fatal("surviving edge 0->1 answered wrong")
	}
	if ix.Reaches(-1, 0) || ix.Reaches(0, 5) {
		t.Fatal("out-of-range queries must be false")
	}
}

// TestAgainstOracle drives random DAGs, with and without declared
// sequences, through every chain-budget regime — all chains indexed, some
// indexed, none indexed — and requires exact agreement with the DFS oracle
// on every pair.
func TestAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(70)
		nr := &naiveReach{n: n, succs: make([][]int, n)}
		b := NewBuilder(n)
		edges := rng.Intn(3 * n)
		for e := 0; e < edges; e++ {
			// Edges forward in ID space keep the graph acyclic.
			from := rng.Intn(n - 1)
			to := from + 1 + rng.Intn(n-from-1)
			b.Edge(from, to)
			nr.succs[from] = append(nr.succs[from], to)
		}
		wantChains := 0 // 0: no sequences declared
		if trial%2 == 1 {
			// Cover the vertices with sequences in ID order (forward, so
			// still acyclic): each becomes one chain.
			seqs := make([][]int, 1+rng.Intn(5))
			for v := 0; v < n; v++ {
				k := rng.Intn(len(seqs))
				if last := len(seqs[k]) - 1; last >= 0 {
					nr.succs[seqs[k][last]] = append(nr.succs[seqs[k][last]], v)
				}
				seqs[k] = append(seqs[k], v)
			}
			for _, seq := range seqs {
				if len(seq) > 0 {
					wantChains++
				}
				b.Sequence(seq)
			}
		}
		budget := 0
		switch trial % 3 {
		case 1:
			budget = 1 + rng.Intn(4) // force a residue
		case 2:
			budget = n // everything indexed
		}
		ix, stuck := b.Build(budget)
		if ix == nil {
			t.Fatalf("trial %d: acyclic graph reported cyclic (stuck %v)", trial, stuck)
		}
		if total, _ := ix.Chains(); wantChains > 0 && total != wantChains {
			t.Fatalf("trial %d: %d chains, want one per sequence (%d)", trial, total, wantChains)
		}
		for a := 0; a < n; a++ {
			for bb := 0; bb < n; bb++ {
				if got, want := ix.Reaches(a, bb), nr.reaches(a, bb); got != want {
					t.Fatalf("trial %d (n=%d budget=%d): Reaches(%d,%d)=%v oracle=%v",
						trial, n, budget, a, bb, got, want)
				}
			}
		}
	}
}

func TestChainBudgetIsSoft(t *testing.T) {
	// A wide fan: 1 source, 63 sinks -> 64 chains. Budget 4 keeps the
	// longest 4; answers must not change.
	b := NewBuilder(64)
	for i := 1; i < 64; i++ {
		b.Edge(0, i)
	}
	ix, _ := b.Build(4)
	if ix == nil {
		t.Fatal("unexpected cycle")
	}
	total, indexed := ix.Chains()
	if indexed != 4 {
		t.Fatalf("indexed = %d, want 4 (total %d)", indexed, total)
	}
	for i := 1; i < 64; i++ {
		if !ix.Reaches(0, i) {
			t.Fatalf("Reaches(0,%d) lost under the chain budget", i)
		}
		if ix.Reaches(i, 0) || (i > 1 && ix.Reaches(i, i-1)) {
			t.Fatalf("spurious reachability at %d", i)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	ix, _ := NewBuilder(0).Build(0)
	if ix == nil {
		t.Fatal("empty graph must build")
	}
	if ix.Reaches(0, 0) {
		t.Fatal("no vertices exist")
	}
}

// TestSequenceKeepsItsChain: the first vertex of sequence B waits on
// sequence A's current tail. The arc must not hand A's tail to B — A's
// later vertices stay on A's chain — and a vertex on no sequence never
// extends a sequence's chain either.
func TestSequenceKeepsItsChain(t *testing.T) {
	// A = 0 -> 1 -> 3, B = 2 -> 4; 1 -> 2 is B's first wait; 5 is on no
	// sequence and waits on A's last vertex.
	b := NewBuilder(6)
	b.Sequence([]int{0, 1, 3})
	b.Sequence([]int{2, 4})
	b.Edge(1, 2)
	b.Edge(3, 5)
	ix, stuck := b.Build(0)
	if ix == nil {
		t.Fatalf("unexpected cycle: stuck=%v", stuck)
	}
	if total, indexed := ix.Chains(); total != 3 || indexed != 3 {
		t.Fatalf("Chains() = (%d, %d), want (3, 3): one per sequence plus vertex 5", total, indexed)
	}
	for _, c := range [][]int{{0, 1, 3}, {2, 4}} {
		for k, v := range c {
			if ix.chain[v] != ix.chain[c[0]] || int(ix.cpos[v]) != k {
				t.Errorf("vertex %d: chain %d pos %d, want chain %d pos %d",
					v, ix.chain[v], ix.cpos[v], ix.chain[c[0]], k)
			}
		}
	}
	if ix.chain[5] == ix.chain[0] {
		t.Error("vertex 5, on no sequence, extended sequence A's chain")
	}
	if !ix.Reaches(0, 4) || !ix.Reaches(1, 5) || ix.Reaches(2, 3) || ix.Reaches(4, 5) {
		t.Error("reachability across sequences answered wrong")
	}
}

// TestSequenceRejectsOverlap: a vertex on two sequences is a caller bug.
func TestSequenceRejectsOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a vertex on two sequences must panic")
		}
	}()
	b := NewBuilder(3)
	b.Sequence([]int{0, 1})
	b.Sequence([]int{1, 2})
}
