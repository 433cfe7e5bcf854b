package core

import (
	"fmt"

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
	// trace. They fan out on the worker pool; results land in indexed slots
	// and are folded in window order below, so the selected pass — first
	// minimum in window order — matches the serial sweep exactly. Selection
	// looks at data movement alone, so only the winner's syncs are reduced.
	sizes := opts.windowSizes()
	prs := make([]*passResult, len(sizes))
	if len(sizes) == 1 {
		// Singleton window set (FixedWindow, or MaxWindow=1): there is no
		// sweep to fan out, so skip the worker-pool scaffolding and run the
		// single pass inline on the calling goroutine.
		prs[0] = runPass(tr, &opts, sizes[0])
	} else if err := par.ForEach(opts.Jobs, len(sizes), func(i int) {
		prs[i] = runPass(tr, &opts, sizes[i])
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
// Locator and every window pass reads it; nothing mutates it afterwards.
type locTrace struct {
	// pre holds the per-statement invariants, indexed by statement.
	pre []stmtPre
	// store[k] locates instance k's output line.
	store []LineLoc
	// leaves locates every instance's input leaves, instance after instance:
	// instance k owns len(pre[k%len(pre)].leaves) consecutive entries.
	leaves []LineLoc
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
	// computed once per statement instead of once per instance. The mix map is
	// shared across instances; emitTasks only reads it.
	body := nest.Body
	pre := make([]stmtPre, len(body))
	leavesPerIter := 0
	for i, stmt := range body {
		set := ir.NestedSets(stmt.RHS)
		p := stmtPre{set: set, leaves: set.Leaves(nil), mix: stmt.OpMix(), ops: stmt.OpCount(1)}
		p.opWeight = 1.0
		if p.ops > 0 {
			p.opWeight = float64(stmt.OpCount(opts.DivWeight)) / float64(p.ops)
		}
		pre[i] = p
		leavesPerIter += len(p.leaves)
	}

	iters := nest.Iterations()
	tr := &locTrace{
		pre:    pre,
		store:  make([]LineLoc, 0, iters*len(body)),
		leaves: make([]LineLoc, 0, iters*leavesPerIter),
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
			for _, ref := range pre[si].leaves {
				ll, ok := loc.LocateRef(prog, ref, env, store)
				if !ok {
					// Unresolvable input: conservatively placed at the
					// statement's store node.
					ll = LineLoc{Line: storeLoc.Line, Home: storeLoc.Home, MC: storeLoc.MC,
						PredictedHit: true, ActualHit: true}
				}
				tr.leaves = append(tr.leaves, ll)
			}
		}
	}
	tr.analyzable = loc.AnalyzableFraction()
	tr.labels = loc.LineLabels()
	tr.translations = loc.Allocator().Pages()
	if locOpts.Predictor != nil {
		tr.predAccuracy = locOpts.Predictor.Accuracy()
	}
	return tr, nil
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
// nested variable sets, the flattened leaf operands, and the op accounting.
// All fields are read-only once built.
type stmtPre struct {
	set      *ir.SetNode
	leaves   []*ir.Ref
	mix      map[ir.OpClass]int
	ops      int
	opWeight float64
}

// passScratch owns the reusable working storage of one scheduling pass's
// instance loop. A pass runs on exactly one worker goroutine, so the scratch
// obeys the par ownership rule by construction; every buffer is overwritten
// (never read) at the start of the instance that uses it, and nothing that
// escapes into the emitted schedule aliases it.
type passScratch struct {
	builder planBuilder
	an      PlanAnalysis
	// taskOf is emitTasks' vertex -> task table.
	taskOf []*Task
	// readerPool recycles the per-line reader maps that write-invalidation
	// retires (delete from lastReaders) back to later lines.
	readerPool []map[mesh.NodeID]int
	// reuseBuf[l] backs the reuse-candidate list of the instance's l-th leaf.
	reuseBuf [][]mesh.NodeID
}

// getReaderMap returns an empty per-line reader map, recycled if available.
func (sc *passScratch) getReaderMap() map[mesh.NodeID]int {
	if n := len(sc.readerPool); n > 0 {
		m := sc.readerPool[n-1]
		sc.readerPool = sc.readerPool[:n-1]
		return m
	}
	return make(map[mesh.NodeID]int)
}

// runPass performs one complete scheduling pass over the located nest with a
// fixed statement-window size. It leaves the emitted arcs unreduced;
// Partition reduces only the selected pass.
func runPass(tr *locTrace, opts *Options, window int) *passResult {
	// Per-node L1 shadow caches model reuse validity and pollution.
	l1 := make([]*cache.Cache, opts.Mesh.Nodes())
	for i := range l1 {
		l1[i] = cache.MustNew(cache.Config{
			SizeBytes: opts.L1Bytes,
			LineBytes: opts.Layout.LineBytes,
			Ways:      opts.L1Ways,
		})
	}

	sched := &Schedule{}
	lt := newLoadTracker(opts.Mesh.Nodes(), opts.LoadThreshold)
	// variable2node: which nodes fetched a line earlier in the current
	// window (Algorithm 1 line 34). Cleared at window boundaries.
	varMap := make(map[uint64][]mesh.NodeID)
	// lastWriter: most recent root task writing a line, for inter-statement
	// flow dependences.
	lastWriter := make(map[uint64]int)
	// lastReaders: per line, the most recent task on each node that fetched
	// it since the line was last written, for inter-statement anti (WAR)
	// dependences. Earlier same-node readers are implied by per-node program
	// order, so one reader per node suffices.
	lastReaders := make(map[uint64]map[mesh.NodeID]int)

	m := len(tr.pre)
	instances := len(tr.store)
	sched.Instances = instances

	stats := Stats{Instances: instances}
	offload := make(map[ir.OpClass]int)
	var sumPar, sumSub float64

	dt := opts.Mesh.DistanceTable()
	// infos is keyed by leaf ref and fully rebuilt per instance; reusing one
	// map (and one lookup closure) avoids re-allocating it per instance.
	infos := make(map[*ir.Ref]operandInfo)
	lookup := func(r *ir.Ref) operandInfo { return infos[r] }
	sc := &passScratch{builder: planBuilder{dt: dt}}

	leaves := tr.leaves
	for k := 0; k < instances; k++ {
		if k%window == 0 {
			// New window: the compiler's reuse map does not cross windows
			// (Section 4.4; the S22 example of Figure 12).
			clear(varMap)
		}
		iter := k / m
		stmtIdx := k % m
		storeLoc := tr.store[k]

		// Attach to every located input leaf the in-window L1 copies the
		// shadow L1s still hold, as candidate reuse nodes.
		ps := &tr.pre[stmtIdx]
		clear(infos)
		for gr := len(sc.reuseBuf); gr < len(ps.leaves); gr++ {
			sc.reuseBuf = append(sc.reuseBuf, nil)
		}
		for li, ref := range ps.leaves {
			ll := leaves[li]
			info := operandInfo{loc: ll}
			if opts.ReuseAware {
				// The candidate list lives in per-leaf scratch: it is only
				// read while this instance's plan is built.
				buf := sc.reuseBuf[li][:0]
				for _, n := range varMap[ll.Line] {
					if n != ll.Node() && l1[n].Contains(ll.Line) {
						buf = append(buf, n)
					}
				}
				sc.reuseBuf[li] = buf
				if len(buf) > 0 {
					info.reuseNodes = buf
				}
			}
			infos[ref] = info
		}
		leaves = leaves[len(ps.leaves):]

		plan := sc.builder.build(ps.set, lookup, storeLoc)
		an := plan.AnalyzeInto(&sc.an)

		root, extra := sched.emitTasks(dt, plan, an, stmtIdx, iter, k/window, ps.opWeight, ps.mix, ps.ops, lt, sc)

		// Inter-statement flow dependences: the root (and any task fetching
		// a previously written line) must follow the writer. When the fetch
		// already sources the writer's node — the only location holding a
		// valid copy after write-invalidation — the fresh line rides the
		// producer handshake into the consumer's L1 (store-to-load
		// forwarding), so the fetch is serviced at L1 cost rather than
		// re-reading the L2 bank or DRAM.
		for ti := len(sched.Tasks) - 1; ti >= 0 && sched.Tasks[ti].Iter == iter && sched.Tasks[ti].Stmt == stmtIdx; ti-- {
			t := sched.Tasks[ti]
			for fi := range t.Fetches {
				f := &t.Fetches[fi]
				if w, ok := lastWriter[f.Line]; ok {
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
		// the simulator and codegen preserve, so they need no arc; node IDs
		// are scanned in order to keep emission deterministic.
		if readers := lastReaders[storeLoc.Line]; len(readers) > 0 {
			for n := mesh.NodeID(0); int(n) < opts.Mesh.Nodes(); n++ {
				if r, ok := readers[n]; ok && n != root.Node {
					root.addWait(r, dt.Between(n, root.Node))
					sched.SyncsBefore++
				}
			}
		}
		root.ResultLine = storeLoc.Line
		lastWriter[storeLoc.Line] = root.ID

		// Update the reuse map and L1 models with what this statement pulled
		// where: every fetched line lands in the L1 of the task that consumed
		// it (that is where a later statement can find a copy — the C(i) in
		// n_D's L1 of Figure 11).
		for ti := len(sched.Tasks) - an.countTasks(); ti < len(sched.Tasks); ti++ {
			task := sched.Tasks[ti]
			for fi := range task.Fetches {
				f := &task.Fetches[fi]
				// Physical locality: a line still resident in the consuming
				// node's L1 (from any earlier access, window or not) is an
				// L1 hit and needs no L2/DRAM service.
				if l1[task.Node].Contains(f.Line) {
					f.L1Hit = true
					f.L2Miss = false
				}
				l1[task.Node].Access(f.Line)
				varMap[f.Line] = appendNode(varMap[f.Line], task.Node)
				lr := lastReaders[f.Line]
				if lr == nil {
					lr = sc.getReaderMap()
					lastReaders[f.Line] = lr
				}
				lr[task.Node] = task.ID
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
		if retired := lastReaders[storeLoc.Line]; retired != nil {
			clear(retired)
			sc.readerPool = append(sc.readerPool, retired)
			delete(lastReaders, storeLoc.Line)
		}
		for n := range l1 {
			if mesh.NodeID(n) != storeLoc.Home {
				l1[n].Invalidate(storeLoc.Line)
			}
		}
		l1[storeLoc.Home].Access(storeLoc.Line)
		varMap[storeLoc.Line] = appendNode(varMap[storeLoc.Line][:0], storeLoc.Home)

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
		for _, t := range sched.Tasks[len(sched.Tasks)-an.countTasks():] {
			if !t.IsRoot {
				for c, n := range t.Mix {
					offload[c] += n
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
	for _, c := range l1 {
		s := c.Stats()
		l1Stats.Hits += s.Hits
		l1Stats.Misses += s.Misses
	}
	stats.L1HitRate = l1Stats.HitRate()
	stats.Imbalance = lt.Imbalance()

	return &passResult{window: window, schedule: sched, stats: stats, offloadMix: offload}
}

// countTasks returns how many tasks the analyzed plan emits (vertices with
// ops plus the root).
func (a *PlanAnalysis) countTasks() int {
	n := 0
	root := a.PostOrder[len(a.PostOrder)-1]
	for _, v := range a.PostOrder {
		if a.OpsAt[v] > 0 || v == root {
			n++
		}
	}
	return n
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
