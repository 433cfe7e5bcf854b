// Package reach answers happens-before (reachability) queries over task
// DAGs with dense integer vertex IDs. It replaces the O(n²/64)-word
// ancestor-bitset closure the verifier used before: memory there grew
// quadratically, which is why schedules above 20k tasks had to be refused.
//
// The index is a chain decomposition in the style of Jagadish's
// path-compression labeling: vertices are covered by chains (paths)
// following a topological order, and every vertex v stores, for each
// indexed chain c, the highest chain position among v's ancestors on c. A
// reachability query a ⤳ b then reduces to one array compare:
// chainPos(a) ≤ up[b][chainOf(a)]. The index costs O(n · chains).
//
// Callers that know a path cover declare it with Builder.Sequence, and each
// declared sequence becomes exactly one chain. A schedule's per-node program
// order is such a cover, so its happens-before index has exactly one chain
// per occupied node and costs O(n · nodes). Vertices on no sequence are
// covered greedily; on arc-only graphs that greedy cover can produce many
// short chains.
//
// Graphs whose chain count exceeds the configured budget keep the longest
// chains indexed and answer queries out of the sparse residue with an
// on-demand BFS that prunes by topological position and shortcuts through
// the indexed chains — correctness never depends on the budget, only query
// cost does.
package reach

import "fmt"

// Builder accumulates edges before Build freezes them into an Index.
type Builder struct {
	n        int
	from, to []int32 // edges in insertion order
	// seq maps a vertex to its sequence's number, counting from 1 (0: on no
	// sequence); nil until Sequence is first called.
	seq  []int32
	nseq int32
}

// NewBuilder returns a builder for a graph with n vertices, 0..n-1.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Edge records from -> to. Out-of-range endpoints and self-loops are
// ignored, mirroring how the verifier tolerates corrupted WaitFor entries
// (structural validation reports them separately).
func (b *Builder) Edge(from, to int) {
	if from < 0 || to < 0 || from >= b.n || to >= b.n || from == to {
		return
	}
	b.from = append(b.from, int32(from))
	b.to = append(b.to, int32(to))
}

// Sequence declares that the vertices vs execute one after another: it
// records the edges vs[i] -> vs[i+1] and pins the whole sequence to one
// chain. Build gives every declared sequence exactly one chain of its own
// and never lets a vertex off the sequence extend it, so a graph whose
// vertices all lie on sequences decomposes into exactly one chain per
// sequence, whatever its other edges. Every vertex must be in range and lie
// on at most one sequence; anything else is a caller bug and panics.
func (b *Builder) Sequence(vs []int) {
	if len(vs) == 0 {
		return
	}
	if b.seq == nil {
		b.seq = make([]int32, b.n)
	}
	b.nseq++
	for i, v := range vs {
		if v < 0 || v >= b.n || b.seq[v] != 0 {
			panic(fmt.Sprintf("reach: vertex %d is out of range or already on a sequence", v))
		}
		b.seq[v] = b.nseq
		if i > 0 {
			b.Edge(vs[i-1], v)
		}
	}
}

// seqOf returns v's sequence number, or 0 when v lies on no sequence.
func (b *Builder) seqOf(v int32) int32 {
	if b.seq == nil {
		return 0
	}
	return b.seq[v]
}

// adjacency groups the edge list by key vertex in compressed-row form:
// adj[off[v]:off[v+1]] lists val of every edge whose key is v, in insertion
// order.
func adjacency(n int, key, val []int32) (off, adj []int32) {
	off = make([]int32, n+1)
	for _, k := range key {
		off[k+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	next := make([]int32, n)
	copy(next, off[:n])
	adj = make([]int32, len(key))
	for e, k := range key {
		adj[next[k]] = val[e]
		next[k]++
	}
	return off, adj
}

// DefaultMaxChains is the indexed-chain budget Build applies when the
// caller passes maxChains <= 0. At int32 granularity the index then costs
// at most n*DefaultMaxChains*4 bytes.
const DefaultMaxChains = 256

// Build freezes the graph into an Index. At most maxChains chains (the
// longest ones) get O(1) query labels; the rest fall back to BFS
// (maxChains <= 0 applies DefaultMaxChains). When the graph has a cycle
// the index is nil and the second result lists the (capped) IDs of
// vertices stuck on or behind the cycle.
//
// The builder must not be reused after Build.
func (b *Builder) Build(maxChains int) (*Index, []int) {
	n := b.n
	predOff, preds := adjacency(n, b.to, b.from)
	succOff, succs := adjacency(n, b.from, b.to)

	// Topological order via Kahn's algorithm; a shortfall means a cycle.
	indeg := make([]int32, n)
	for i := range indeg {
		indeg[i] = predOff[i+1] - predOff[i]
	}
	order := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	// order doubles as Kahn's FIFO queue: vertices are appended when their
	// last predecessor is dequeued, at positions past the read head.
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, s := range succs[succOff[v]:succOff[v+1]] {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) != n {
		const maxListed = 16
		var stuck []int
		for i := 0; i < n && len(stuck) < maxListed; i++ {
			if indeg[i] > 0 {
				stuck = append(stuck, i)
			}
		}
		return nil, stuck
	}

	ix := &Index{
		n:       n,
		pos:     make([]int32, n),
		chain:   make([]int32, n),
		cpos:    make([]int32, n),
		succOff: succOff,
		succs:   succs,
	}
	for i, v := range order {
		ix.pos[v] = int32(i)
	}

	// Chain cover, in topological order. A vertex on a declared sequence
	// joins its sequence's chain; the sequence's edges make it the chain's
	// current tail's successor, so the chain is a genuine path. Any other
	// vertex extends the chain of its first predecessor that is a current
	// tail and lies on no sequence, else starts a new chain.
	tail := make([]int32, 0, 64)   // chain -> current tail vertex
	length := make([]int32, 0, 64) // chain -> length
	seqChain := make([]int32, b.nseq+1)
	for i := range seqChain {
		seqChain[i] = -1
	}
	for _, v := range order {
		c := int32(-1)
		if s := b.seqOf(v); s != 0 {
			c = seqChain[s]
		} else {
			for _, p := range preds[predOff[v]:predOff[v+1]] {
				if b.seqOf(p) == 0 && tail[ix.chain[p]] == p {
					c = ix.chain[p]
					break
				}
			}
		}
		if c < 0 {
			c = int32(len(tail))
			tail = append(tail, v)
			length = append(length, 0)
			if s := b.seqOf(v); s != 0 {
				seqChain[s] = c
			}
		}
		ix.chain[v] = c
		ix.cpos[v] = length[c]
		tail[c] = v
		length[c]++
	}

	// Renumber chains by descending length (stable) so the budget keeps
	// the chains that cover the most vertices; everything beyond the
	// budget is residue answered by BFS.
	if maxChains <= 0 {
		maxChains = DefaultMaxChains
	}
	nchains := len(tail)
	byLen := make([]int32, nchains)
	for i := range byLen {
		byLen[i] = int32(i)
	}
	sortChainsByLength(byLen, length)
	renum := make([]int32, nchains)
	for newID, oldID := range byLen {
		renum[oldID] = int32(newID)
	}
	for v := range ix.chain {
		ix.chain[v] = renum[ix.chain[v]]
	}
	ix.chains = nchains
	ix.indexed = min(nchains, maxChains)

	// Ancestor labels, in topological order: up[v][c] is the highest
	// position on indexed chain c among v's ancestors *including v
	// itself* — self-inclusion makes same-chain queries fall out of the
	// same compare.
	k := ix.indexed
	ix.up = make([]int32, n*k)
	for i := range ix.up {
		ix.up[i] = -1
	}
	for _, v := range order {
		row := ix.up[int(v)*k : int(v)*k+k]
		for _, p := range preds[predOff[v]:predOff[v+1]] {
			prow := ix.up[int(p)*k : int(p)*k+k]
			for c, pc := range prow {
				if pc > row[c] {
					row[c] = pc
				}
			}
		}
		if c := ix.chain[v]; int(c) < k {
			row[c] = ix.cpos[v]
		}
	}
	return ix, nil
}

// sortChainsByLength stably sorts chain IDs by descending length.
func sortChainsByLength(ids []int32, length []int32) {
	// Simple bottom-up merge sort keeps it allocation-light and stable
	// without pulling in sort.SliceStable's reflection.
	tmp := make([]int32, len(ids))
	for width := 1; width < len(ids); width *= 2 {
		for lo := 0; lo < len(ids); lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > len(ids) {
				mid = len(ids)
			}
			if hi > len(ids) {
				hi = len(ids)
			}
			i, j, o := lo, mid, lo
			for i < mid && j < hi {
				if length[ids[j]] > length[ids[i]] {
					tmp[o] = ids[j]
					j++
				} else {
					tmp[o] = ids[i]
					i++
				}
				o++
			}
			for i < mid {
				tmp[o] = ids[i]
				i++
				o++
			}
			for j < hi {
				tmp[o] = ids[j]
				j++
				o++
			}
			copy(ids[lo:hi], tmp[lo:hi])
		}
	}
}

// Index answers reachability queries. It reuses internal scratch for the
// BFS fallback, so a single Index must not be queried concurrently.
type Index struct {
	n       int
	pos     []int32 // topological position
	chain   []int32 // chain ID (IDs < indexed have O(1) labels)
	cpos    []int32 // position within the chain
	chains  int     // number of chains
	indexed int     // number of labeled chains
	up      []int32 // n×indexed ancestor labels, row-major
	succOff []int32 // succs[succOff[v]:succOff[v+1]] are v's successors,
	succs   []int32 // the adjacency of the BFS fallback

	stamp uint32
	seen  []uint32 // allocated by the first BFS
	queue []int32
}

// Len returns the number of vertices.
func (ix *Index) Len() int { return ix.n }

// Chains returns (total, indexed) chain counts — introspection for tests
// and memory accounting.
func (ix *Index) Chains() (total, indexed int) { return ix.chains, ix.indexed }

// Reaches reports whether a == b or a path a ⤳ b exists. Out-of-range
// vertices are unreachable.
func (ix *Index) Reaches(a, b int) bool {
	if a == b {
		return a >= 0 && a < ix.n
	}
	if a < 0 || b < 0 || a >= ix.n || b >= ix.n {
		return false
	}
	if ix.pos[a] >= ix.pos[b] {
		return false // topological order embeds the partial order
	}
	if c := ix.chain[a]; int(c) < ix.indexed {
		return ix.up[b*ix.indexed+int(c)] >= ix.cpos[a]
	}
	return ix.bfs(a, b)
}

// bfs is the residue fallback: walk successors of a, pruning vertices at
// or past b's topological position, and shortcut to success through any
// visited vertex whose indexed label already proves it an ancestor of b.
func (ix *Index) bfs(a, b int) bool {
	if ix.seen == nil {
		ix.seen = make([]uint32, ix.n)
	}
	ix.stamp++
	if ix.stamp == 0 { // wrapped: reset stamps
		for i := range ix.seen {
			ix.seen[i] = 0
		}
		ix.stamp = 1
	}
	st := ix.stamp
	q := ix.queue[:0]
	ix.seen[a] = st
	q = append(q, int32(a))
	pb := ix.pos[b]
	bRow := ix.up[b*ix.indexed : b*ix.indexed+ix.indexed]
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		for _, s := range ix.succs[ix.succOff[u]:ix.succOff[u+1]] {
			if int(s) == b {
				ix.queue = q
				return true
			}
			if ix.pos[s] >= pb || ix.seen[s] == st {
				continue
			}
			if c := ix.chain[s]; int(c) < ix.indexed && bRow[c] >= ix.cpos[s] {
				ix.queue = q
				return true // s is an ancestor of b by its label
			}
			ix.seen[s] = st
			q = append(q, s)
		}
	}
	ix.queue = q
	return false
}
