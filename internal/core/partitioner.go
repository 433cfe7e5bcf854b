package core

import (
	"fmt"
	mbits "math/bits"
	"slices"

	"dmacp/internal/cache"
	"dmacp/internal/fusion"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/par"
)

// Stats aggregates the per-statement metrics of one partitioned nest.
type Stats struct {
	// Instances is the number of statement instances scheduled.
	Instances int
	// TotalMovement is the optimized data movement (links traversed) summed
	// over all statement instances, including load-balancing penalties.
	TotalMovement int64
	// AvgMovement and MaxMovement are per-statement-instance figures
	// (Figure 13 reports reductions of these against the default).
	AvgMovement float64
	MaxMovement int
	// AvgParallelism and MaxParallelism are the degree-of-parallelism
	// figures of Figure 14.
	AvgParallelism float64
	MaxParallelism int
	// SyncsPerStatement is the post-reduction synchronization count per
	// statement instance (Figure 15).
	SyncsPerStatement float64
	// SubcomputationsPerStatement is the average number of subcomputations a
	// statement is split into.
	SubcomputationsPerStatement float64
	// ReuseHits counts operands satisfied from a reused L1 copy.
	ReuseHits int64
	// L1HitRate is the hit rate of the per-node L1 models during the
	// optimized execution (Figure 16/21).
	L1HitRate float64
	// Imbalance is max/mean node load after load balancing.
	Imbalance float64
}

// Result is the outcome of partitioning one loop nest.
type Result struct {
	Nest *ir.Nest
	// FusedNest is the coarsened nest the schedule was actually emitted
	// over when Options.Fuse merged producer→consumer statements (nil when
	// fusion was off or found no legal candidate). Task.Stmt indices refer
	// to its body; Fusion expands them back to Nest's statement indices.
	FusedNest *ir.Nest
	// Fusion maps coarsened statement indices to the original ones; nil
	// when FusedNest is nil.
	Fusion *fusion.FusionMap
	// WindowSize is the statement window the adaptive search selected (or
	// the fixed size when Options.FixedWindow was set).
	WindowSize int
	// MovementBySize and L1HitBySize record the window-size exploration
	// (Figures 20/21): total movement and model-L1 hit rate per trial size.
	MovementBySize map[int]int64
	L1HitBySize    map[int]float64
	// Schedule is the emitted task DAG for the chosen window size.
	Schedule *Schedule
	// Stats are the chosen pass's aggregates.
	Stats Stats
	// AnalyzableFraction is the Table 1 figure observed during location
	// detection.
	AnalyzableFraction float64
	// PredictorAccuracy is the Table 2 figure (0 when no predictor is set).
	PredictorAccuracy float64
	// OffloadMix tallies re-mapped (non-root) subcomputation ops by class
	// (Table 3).
	OffloadMix map[ir.OpClass]int
	// UsedInspector reports whether may-dependences forced an
	// inspector–executor split of the timing loop.
	UsedInspector bool
	// LineLabels names each cache line after the first reference that
	// touched it ("B[24]"); code generation renders schedules with them.
	LineLabels map[uint64]string
	// Translations is the VA-page -> PA-page table the chosen pass's
	// page-colored allocator established. Address translation is
	// first-touch-order dependent, so any independent pass that needs the
	// schedule's line addresses (the verifier) must replay this table.
	Translations map[uint64]uint64
}

// ScheduleNest returns the nest whose body the schedule's Task.Stmt indices
// refer to: the fused nest when the coarsening pre-pass merged statements,
// the original nest otherwise. Every consumer that interprets Stmt/Iter
// against a statement body — the verifier, the code generator — must use
// it; the unfused Nest stays the reference semantics.
func (r *Result) ScheduleNest() *ir.Nest {
	if r.FusedNest != nil {
		return r.FusedNest
	}
	return r.Nest
}

// Partition runs the full NDP-aware partitioning pipeline of Algorithm 1 on
// one loop nest: location detection, per-window-size trial scheduling,
// window-size selection by minimum data movement, and final task emission
// with load balancing and synchronization reduction.
//
// store carries the runtime array contents; it is required when the body has
// indirect accesses (the inspector resolves them through it) and may be nil
// otherwise.
func Partition(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(nest.Body) == 0 {
		return nil, fmt.Errorf("core: nest %q has an empty body", nest.Name)
	}

	// Coarsening pre-pass: merge single-consumer producers into their
	// consumers before anything looks at the body. The sweep, the emitted
	// schedule and the verifier all operate on the fused nest; the original
	// stays on Result.Nest as the reference semantics.
	schedNest := nest
	var fmap *fusion.FusionMap
	if opts.Fuse {
		fr := fusion.Coarsen(prog, nest, fusion.Limits{
			L1Bytes:   opts.L1Bytes,
			LineBytes: opts.Layout.LineBytes,
		})
		if fr.Merged > 0 {
			schedNest = fr.Nest
			fmap = fr.Map
		}
	}

	usedInspector := false
	if ir.HasMayDeps(schedNest.Body) && store != nil {
		// Inspector phase: resolve indirect accesses through runtime values
		// (Section 4.5). The executor below consults the same store, which
		// is exactly what the inspector recorded.
		ins := ir.NewInspector(prog, schedNest)
		if err := ins.Run(store); err != nil {
			return nil, fmt.Errorf("core: inspector: %w", err)
		}
		usedInspector = true
	}

	tr, err := buildTrace(prog, schedNest, store, &opts)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Nest:               nest,
		Fusion:             fmap,
		MovementBySize:     make(map[int]int64),
		L1HitBySize:        make(map[int]float64),
		UsedInspector:      usedInspector,
		AnalyzableFraction: tr.analyzable,
		PredictorAccuracy:  tr.predAccuracy,
		LineLabels:         tr.labels,
		Translations:       tr.translations,
	}
	if fmap != nil {
		res.FusedNest = schedNest
	}
	// Window-size trials are independent: each pass owns its shadow L1s,
	// reuse map and emitted schedule, and only reads the frozen location
	// trace and plans. They fan out on the worker pool; results land in
	// indexed slots and are folded in window order below, so the selected
	// pass — first minimum in window order — matches the serial sweep
	// exactly. Selection looks at data movement alone, so only the winner's
	// syncs are reduced. A single window (FixedWindow, or MaxWindow=1) has no
	// plan to share, so it skips the plan pre-pass. A pass resets the scratch
	// it takes, so the sweep allocates one per worker, not one per window.
	sizes := opts.windowSizes()
	if len(sizes) > 1 {
		if err := tr.freezePlans(&opts); err != nil {
			return nil, err
		}
	}
	pool := make(chan *passScratch, min(par.Jobs(opts.Jobs), len(sizes)))
	for len(pool) < cap(pool) {
		pool <- newPassScratch(tr, &opts)
	}
	prs := make([]*passResult, len(sizes))
	if err := par.ForEach(opts.Jobs, len(sizes), func(i int) {
		sc := <-pool
		defer func() { pool <- sc }()
		prs[i] = runPass(tr, &opts, sizes[i], sc)
	}); err != nil {
		return nil, err
	}
	var best *passResult
	for i, pr := range prs {
		res.MovementBySize[sizes[i]] = pr.stats.TotalMovement
		res.L1HitBySize[sizes[i]] = pr.stats.L1HitRate
		if best == nil || pr.stats.TotalMovement < best.stats.TotalMovement {
			best = pr
		}
	}
	best.reduceSyncs()
	res.WindowSize = best.window
	res.Schedule = best.schedule
	res.Stats = best.stats
	res.OffloadMix = best.offloadMix
	if opts.Verify != nil {
		if err := opts.Verify(prog, nest, store, &opts, res); err != nil {
			return nil, fmt.Errorf("core: schedule verification: %w", err)
		}
	}
	return res, nil
}

// locTrace is the frozen output of data location detection (Section 4.1)
// for one nest. Location follows the instance order and never consults the
// statement window, so Partition builds the trace once with a single
// Locator, adds the frozen plans, and every window pass reads it; nothing
// mutates it once the passes start.
type locTrace struct {
	// pre holds the per-statement invariants, indexed by statement.
	pre []stmtPre
	// store[k] locates instance k's output line.
	store []LineLoc
	// leaves locates every instance's input leaves, instance after instance:
	// instance k owns leaves[leafLo[k]:leafLo[k+1]].
	leaves []LineLoc
	leafLo []int
	// storeSlot and leafSlot number the distinct lines 0..slots-1 in order
	// of first sight; a pass indexes its per-line state by slot.
	storeSlot, leafSlot []int32
	slots               int
	// plans[k/planChunk][k%planChunk] is instance k's reuse-free plan.
	plans [][]frozenPlan
	// analyzable, predAccuracy, labels and translations are the locator's
	// end-of-trace figures (Result.AnalyzableFraction and friends).
	analyzable   float64
	predAccuracy float64
	labels       map[uint64]string
	translations map[uint64]uint64
}

// buildTrace locates every reference instance of the nest in program order:
// each instance's store, then its input leaves. The locator consults a
// fresh clone of the options' predictor, so the shared one stays untouched.
func buildTrace(prog *ir.Program, nest *ir.Nest, store *ir.Store, opts *Options) (*locTrace, error) {
	locOpts := *opts
	if opts.Predictor != nil {
		locOpts.Predictor = opts.Predictor.Fresh()
	}
	loc, err := NewLocator(&locOpts)
	if err != nil {
		return nil, err
	}

	// Statement-shape invariants — the nested variable sets, leaf list, op mix
	// and op weight depend only on the statement, not the iteration — are
	// computed once per statement instead of once per instance.
	body := nest.Body
	pre := make([]stmtPre, len(body))
	leavesPerIter := 0
	for i, stmt := range body {
		set := ir.NestedSets(stmt.RHS)
		p := stmtPre{set: set, leaves: set.Leaves(nil), leafOf: make(map[*ir.Ref]int),
			mix: stmt.OpMix(), ops: stmt.OpCount(1)}
		for li, ref := range p.leaves {
			p.leafOf[ref] = li
		}
		p.opWeight = 1.0
		if p.ops > 0 {
			p.opWeight = float64(stmt.OpCount(opts.DivWeight)) / float64(p.ops)
		}
		pre[i] = p
		leavesPerIter += len(p.leaves)
	}

	iters := nest.Iterations()
	tr := &locTrace{
		pre:       pre,
		store:     make([]LineLoc, 0, iters*len(body)),
		storeSlot: make([]int32, 0, iters*len(body)),
		leaves:    make([]LineLoc, 0, iters*leavesPerIter),
		leafSlot:  make([]int32, 0, iters*leavesPerIter),
		leafLo:    make([]int, 0, iters*len(body)+1),
	}
	slotOf := make(map[uint64]int32)
	slot := func(line uint64) int32 {
		if _, ok := slotOf[line]; !ok {
			slotOf[line] = int32(len(slotOf))
		}
		return slotOf[line]
	}
	var env map[string]int
	for iter := 0; iter < iters; iter++ {
		env = nest.IterationEnvInto(env, iter)
		for si, stmt := range body {
			storeLoc, ok := loc.LocateRef(prog, stmt.LHS, env, store)
			if !ok {
				// Unresolvable output (indirect without runtime info): anchor
				// at the array's base location.
				arr := prog.Array(stmt.LHS.Array)
				if arr == nil {
					return nil, fmt.Errorf("core: statement %q writes undeclared array", stmt)
				}
				storeLoc = loc.Locate(loc.Allocator().Translate(arr.Base))
			}
			tr.store = append(tr.store, storeLoc)
			tr.storeSlot = append(tr.storeSlot, slot(storeLoc.Line))
			tr.leafLo = append(tr.leafLo, len(tr.leaves))
			for _, ref := range pre[si].leaves {
				ll, ok := loc.LocateRef(prog, ref, env, store)
				if !ok {
					// Unresolvable input: conservatively placed at the
					// statement's store node.
					ll = LineLoc{Line: storeLoc.Line, Home: storeLoc.Home, MC: storeLoc.MC,
						PredictedHit: true, ActualHit: true}
				}
				tr.leaves = append(tr.leaves, ll)
				tr.leafSlot = append(tr.leafSlot, slot(ll.Line))
			}
		}
	}
	tr.leafLo = append(tr.leafLo, len(tr.leaves))
	tr.slots = len(slotOf)
	tr.analyzable = loc.AnalyzableFraction()
	tr.labels = loc.LineLabels()
	tr.translations = loc.Allocator().Pages()
	if locOpts.Predictor != nil {
		tr.predAccuracy = locOpts.Predictor.Accuracy()
	}
	return tr, nil
}

const planChunk = 256 // instances per plan pre-pass job

// freezePlans builds every instance's reuse-free plan and analysis once, in
// chunks on up to opts.Jobs workers; chunk c writes only plans[c], packed
// into its own slabs. build is a pure function of the set, the located
// leaves, their reuse nodes and the store, so the frozen plan is what a
// pass would build for an instance without a reuse candidate.
func (tr *locTrace) freezePlans(opts *Options) error {
	n := len(tr.store)
	tr.plans = make([][]frozenPlan, (n+planChunk-1)/planChunk)
	return par.ForEach(opts.Jobs, len(tr.plans), func(c int) {
		lo, hi := c*planChunk, min((c+1)*planChunk, n)
		sc := &passScratch{builder: planBuilder{dt: opts.Mesh.DistanceTable()}}
		slabs, fps := newPlanSlabs(hi-lo, tr.leafLo[hi]-tr.leafLo[lo]), make([]frozenPlan, hi-lo)
		for k := lo; k < hi; k++ {
			sc.infos = sc.infos[:0]
			for _, ll := range tr.leaves[tr.leafLo[k]:tr.leafLo[k+1]] {
				sc.infos = append(sc.infos, operandInfo{loc: ll})
			}
			fps[k-lo] = slabs.pack(sc.split(&tr.pre[k%len(tr.pre)], tr.store[k]))
		}
		tr.plans[c] = fps
	})
}

// passResult is one window-size trial.
type passResult struct {
	window     int
	schedule   *Schedule
	stats      Stats
	offloadMix map[ir.OpClass]int
}

// reduceSyncs applies the synchronization reduction to the selected pass.
// Both emitters report deduplicated sync counts: arcs dropped as exact
// duplicates and arcs eliminated by transitive reduction are subtracted, so
// SyncsAfter is exactly the number of arcs the simulator charges.
func (pr *passResult) reduceSyncs() {
	sched := pr.schedule
	deduped := DedupeWaits(sched.Tasks)
	removed := ReduceSyncs(sched.Tasks)
	sched.SyncsAfter = max(sched.SyncsBefore-deduped-removed, 0)
	if sched.Instances > 0 {
		pr.stats.SyncsPerStatement = float64(sched.SyncsAfter) / float64(sched.Instances)
	}
}

// stmtPre caches the per-statement invariants of the scheduling loop: the
// nested variable sets, the flattened leaf operands (leafOf maps each to its
// position, the last one should a ref repeat), and the op accounting.
// All fields are read-only once built.
type stmtPre struct {
	set      *ir.SetNode
	leaves   []*ir.Ref
	leafOf   map[*ir.Ref]int
	mix      ir.OpMix
	ops      int
	opWeight float64
}

// lineState is a pass's record of one line: lastWriter is its latest root
// writer plus one (0: none), for flow dependences; readers holds, in node
// order, each node's latest task fetching it since that write, for anti
// (WAR) dependences (earlier same-node reads are ordered by per-node program
// order); copies is variable2node (Algorithm 1 line 34): the nodes that
// fetched it in window epoch-1.
type lineState struct {
	lastWriter, epoch int
	readers           []*Task
	copies            []mesh.NodeID
}

// passScratch owns the reusable working storage of a scheduling pass. A pass
// runs on exactly one worker goroutine and resets what it reads, so the
// scratch obeys the par ownership rule by construction and can serve the
// worker's next pass; nothing that escapes into the emitted schedule
// aliases it. The plan pre-pass uses only split's part.
type passScratch struct {
	builder planBuilder
	an      PlanAnalysis
	infos   []operandInfo // the instance's leaves, by position
	pre     *stmtPre
	taskOf  []*Task // emitTasks' vertex -> task table
	l1      *shadowL1s
	lines   []lineState // by line slot
}

func newPassScratch(tr *locTrace, opts *Options) *passScratch {
	return &passScratch{
		builder: planBuilder{dt: opts.Mesh.DistanceTable()},
		l1: newShadowL1s(opts.Mesh.Nodes(), tr.slots,
			cache.Config{SizeBytes: opts.L1Bytes, LineBytes: opts.Layout.LineBytes, Ways: opts.L1Ways}),
		lines: make([]lineState, tr.slots),
	}
}

func (sc *passScratch) lookup(r *ir.Ref) operandInfo { return sc.infos[sc.pre.leafOf[r]] }

// split builds and analyzes the plan of an instance of ps whose leaves infos
// holds. Both results alias the scratch until the next call.
func (sc *passScratch) split(ps *stmtPre, store LineLoc) (*StatementPlan, *PlanAnalysis) {
	sc.pre = ps
	plan := sc.builder.build(ps.set, sc.lookup, store)
	return plan, plan.AnalyzeInto(&sc.an)
}

// copiesIn returns slot s's variable2node list for window epoch ep, emptied
// first if an earlier window filled it: the compiler's reuse map does not
// cross windows (Section 4.4; the S22 example of Figure 12).
func (sc *passScratch) copiesIn(s int32, ep int) []mesh.NodeID {
	if ls := &sc.lines[s]; ls.epoch != ep {
		ls.epoch, ls.copies = ep, ls.copies[:0]
	}
	return sc.lines[s].copies
}

// shadowL1s are a pass's per-node L1 shadow caches, which model reuse
// validity and pollution, plus per line slot a bitset of the nodes that may
// hold the line. A bit is set on every access and never cleared on eviction,
// since invalidating a non-holder is a no-op.
type shadowL1s struct {
	c       []*cache.Cache
	words   int      // bitset words per slot: ceil(nodes/64)
	holders []uint64 // slot s owns holders[s*words : (s+1)*words]
}

func newShadowL1s(nodes, slots int, cfg cache.Config) *shadowL1s {
	l := &shadowL1s{c: make([]*cache.Cache, nodes), words: (nodes + 63) / 64}
	for i := range l.c {
		l.c[i] = cache.MustNew(cfg)
	}
	l.holders = make([]uint64, slots*l.words)
	return l
}

// access touches line (slot s) in node n's L1 and reports whether it hit.
func (l *shadowL1s) access(n mesh.NodeID, s int32, line uint64) bool {
	l.holders[int(s)*l.words+int(n)/64] |= 1 << (uint(n) % 64)
	return l.c[n].Access(line)
}

// store write-invalidates line (slot s) in every L1 but home's, then leaves
// the written line in home's.
func (l *shadowL1s) store(home mesh.NodeID, s int32, line uint64) {
	hs := l.holders[int(s)*l.words : int(s+1)*l.words]
	for w, bits := range hs {
		for ; bits != 0; bits &= bits - 1 {
			if n := mesh.NodeID(w*64 + mbits.TrailingZeros64(bits)); n != home {
				l.c[n].Invalidate(line)
			}
		}
		hs[w] = 0
	}
	l.access(home, s, line)
}

// lineSlot returns the slot of a line among the instance's leaves, where
// every line its tasks fetch comes from.
func lineSlot(lls []LineLoc, slots []int32, line uint64) int32 {
	i := 0
	for lls[i].Line != line {
		i++
	}
	return slots[i]
}

// runPass performs one complete scheduling pass over the located nest with a
// fixed statement-window size, on scratch it resets first. It leaves the
// emitted arcs unreduced; Partition reduces only the selected pass.
func runPass(tr *locTrace, opts *Options, window int, sc *passScratch) *passResult {
	l1 := sc.l1
	for _, c := range l1.c {
		c.Flush()
	}
	clear(l1.holders)
	for s := range sc.lines {
		sc.lines[s] = lineState{readers: sc.lines[s].readers[:0], copies: sc.lines[s].copies}
	}

	sched := &Schedule{}
	lt := newLoadTracker(opts.Mesh.Nodes(), opts.LoadThreshold)

	m := len(tr.pre)
	instances := len(tr.store)
	sched.Instances = instances

	stats := Stats{Instances: instances}
	offload := make(map[ir.OpClass]int)
	var sumPar, sumSub float64

	dt := opts.Mesh.DistanceTable()
	for k := 0; k < instances; k++ {
		ep := k/window + 1
		iter := k / m
		stmtIdx := k % m
		storeLoc := tr.store[k]
		ps := &tr.pre[stmtIdx]
		lo, hi := tr.leafLo[k], tr.leafLo[k+1]
		lls, slots := tr.leaves[lo:hi], tr.leafSlot[lo:hi]

		// Attach to every located input leaf the in-window L1 copies the
		// shadow L1s still hold, as candidate reuse nodes. Without a
		// candidate the plan is the frozen reuse-free one.
		reuse := false
		sc.infos = slices.Grow(sc.infos[:0], len(lls))[:len(lls)]
		for li, ll := range lls {
			buf := sc.infos[li].reuseNodes[:0]
			for _, n := range sc.copiesIn(slots[li], ep) {
				if opts.ReuseAware && n != ll.Node() && l1.c[n].Contains(ll.Line) {
					buf = append(buf, n)
				}
			}
			sc.infos[li] = operandInfo{loc: ll, reuseNodes: buf}
			reuse = reuse || len(buf) > 0
		}
		var plan *StatementPlan
		var an *PlanAnalysis
		if !reuse && tr.plans != nil {
			fp := &tr.plans[k/planChunk][k%planChunk]
			plan, an = &fp.plan, &fp.an
		} else {
			plan, an = sc.split(ps, storeLoc)
		}

		first := len(sched.Tasks)
		root, extra := sched.emitTasks(dt, plan, an, stmtIdx, iter, k/window, ps.opWeight, ps.mix, ps.ops, lt, sc)
		inst := sched.Tasks[first:]

		// Inter-statement flow dependences: the root (and any task fetching
		// a previously written line) must follow the writer. When the fetch
		// already sources the writer's node — the only location holding a
		// valid copy after write-invalidation — the fresh line rides the
		// producer handshake into the consumer's L1 (store-to-load
		// forwarding), so the fetch is serviced at L1 cost rather than
		// re-reading the L2 bank or DRAM.
		for _, t := range inst {
			for fi := range t.Fetches {
				f := &t.Fetches[fi]
				if w := sc.lines[lineSlot(lls, slots, f.Line)].lastWriter - 1; w >= 0 {
					t.addWait(w, dt.Between(sched.Tasks[w].Node, t.Node))
					sched.SyncsBefore++
					if sched.Tasks[w].Node == f.From {
						f.L1Hit = true
						f.L2Miss = false
					}
				}
			}
		}
		// Inter-statement anti dependences (WAR): the root's store must not
		// overtake earlier reads of the output line issued from other nodes.
		// Same-node readers are already ordered by the per-node program order
		// the simulator and codegen preserve, so they need no arc; readers
		// are kept in node order to keep emission deterministic.
		ss := tr.storeSlot[k]
		out := &sc.lines[ss]
		for _, r := range out.readers {
			if r.Node != root.Node {
				root.addWait(r.ID, dt.Between(r.Node, root.Node))
				sched.SyncsBefore++
			}
		}
		root.ResultLine = storeLoc.Line
		out.lastWriter = root.ID + 1

		// Update the reuse map and L1 models with what this statement pulled
		// where: every fetched line lands in the L1 of the task that consumed
		// it (that is where a later statement can find a copy — the C(i) in
		// n_D's L1 of Figure 11).
		for _, task := range inst {
			for fi := range task.Fetches {
				f := &task.Fetches[fi]
				s := lineSlot(lls, slots, f.Line)
				// Physical locality: a line still resident in the consuming
				// node's L1 (from any earlier access, window or not) is an
				// L1 hit and needs no L2/DRAM service.
				if l1.access(task.Node, s, f.Line) {
					f.L1Hit = true
					f.L2Miss = false
				}
				ls := &sc.lines[s]
				ls.copies = appendNode(sc.copiesIn(s, ep), task.Node)
				ls.readers = addReader(ls.readers, task)
			}
		}
		// The store supersedes all recorded readers of the output line: this
		// instance's own reads happen before its root's write (tree arcs plus
		// per-node order guarantee it), and later writers are ordered against
		// the root through lastWriter.
		//
		// Write-invalidate: the store also kills every remote copy of the
		// line in both copy models — the shadow L1s and the reuse map — so
		// no later statement plans an L1 reuse from a pre-write copy. The
		// verifier replays the same model and rejects stale hits outright.
		out.readers = out.readers[:0]
		l1.store(storeLoc.Home, ss, storeLoc.Line)
		out.copies = append(sc.copiesIn(ss, ep)[:0], storeLoc.Home)

		// Aggregate statement metrics.
		mv := plan.Movement + extra
		stats.TotalMovement += int64(mv)
		if mv > stats.MaxMovement {
			stats.MaxMovement = mv
		}
		sumPar += float64(an.Parallelism)
		if an.Parallelism > stats.MaxParallelism {
			stats.MaxParallelism = an.Parallelism
		}
		sumSub += float64(an.Subcomputations)
		stats.ReuseHits += int64(plan.ReuseHits)
		for _, t := range inst {
			if !t.IsRoot {
				for c, n := range t.Mix {
					if n > 0 { // a class without ops stays out of the map
						offload[ir.OpClass(c)] += n
					}
				}
			}
		}
	}

	if instances > 0 {
		stats.AvgMovement = float64(stats.TotalMovement) / float64(instances)
		stats.AvgParallelism = sumPar / float64(instances)
		stats.SubcomputationsPerStatement = sumSub / float64(instances)
	}
	var l1Stats cache.Stats
	for _, c := range l1.c {
		s := c.Stats()
		l1Stats.Hits += s.Hits
		l1Stats.Misses += s.Misses
	}
	stats.L1HitRate = l1Stats.HitRate()
	stats.Imbalance = lt.Imbalance()

	return &passResult{window: window, schedule: sched, stats: stats, offloadMix: offload}
}

// addReader records t as its node's latest reader, keeping rs in node order.
func addReader(rs []*Task, t *Task) []*Task {
	i, ok := slices.BinarySearchFunc(rs, t.Node, func(r *Task, n mesh.NodeID) int { return int(r.Node - n) })
	if !ok {
		return slices.Insert(rs, i, t)
	}
	rs[i] = t
	return rs
}

// appendNode appends n to nodes if absent.
func appendNode(nodes []mesh.NodeID, n mesh.NodeID) []mesh.NodeID {
	for _, x := range nodes {
		if x == n {
			return nodes
		}
	}
	return append(nodes, n)
}
