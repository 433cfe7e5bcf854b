package main

import (
	"fmt"
	"math/rand"
	"time"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/exp"
	"dmacp/internal/ir"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// config fixes one workload: its scale and the partitioner settings.
type config struct {
	name  string
	scale workloads.Scale
	// window pins core.Options.FixedWindow; 0 keeps the adaptive 1..8 search.
	window int
	// repair selects the online fault-repair workload instead of the compile
	// pipeline.
	repair bool
	// jobs bounds the partitioner's worker pool: 2 on every workload, the
	// nproc of the box the bounds were set on. Tests override it.
	jobs int
}

// configs are the benchmark's workloads; README.md records why each exists.
var configs = []config{
	{name: "compile-adaptive", scale: workloads.DefaultScale(), jobs: 2},
	{name: "compile-window1", scale: workloads.Scale{Iters: 512, Elems: 1 << 16}, window: 1, jobs: 2},
	{name: "online-repair", scale: workloads.DefaultScale(), window: 4, repair: true, jobs: 2},
}

func configByName(name string) (config, error) {
	for _, c := range configs {
		if c.name == name {
			return c, nil
		}
	}
	return config{}, fmt.Errorf("unknown workload %q", name)
}

// pass is what one timed pass over a workload's operations measured.
type pass struct {
	dur time.Duration
	// lat is the latency of each operation's timed call chain, in ms;
	// recover is online-repair's ReintegrateOnline latency per event. Both
	// are keyed by the operation's index in the pass; a failed operation
	// may have none.
	lat, recover map[int]float64
	// offClock is the time the benchmark's own output checks took inside
	// the pass; dur excludes it.
	offClock time.Duration
	// failures names each failed operation; failed counts them.
	failures []string
	failed   int
	ops      int
	counts   map[string]float64
	alloc    uint64
	gcs      uint32
	gcPause  time.Duration
}

// took records the current operation's latency into lat or recover. The
// loop is closed, so the current operation is the last one opened.
func (p *pass) took(into *map[int]float64, since time.Time) {
	if *into == nil {
		*into = map[int]float64{}
	}
	(*into)[p.ops-1] = float64(time.Since(since).Nanoseconds()) / 1e6
}

// opMedians is each operation's median latency over the passes. Every pass
// makes the same operations in the same order, so the percentiles over
// these medians keep each operation's typical time and drop the passes a
// busy neighbour slowed.
func opMedians(passes []*pass, lat func(*pass) map[int]float64) []float64 {
	byOp := map[int][]float64{}
	for _, p := range passes {
		for i, ms := range lat(p) {
			byOp[i] = append(byOp[i], ms)
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, median(v))
	}
	return out
}

func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// workload is one benchmark workload: setup builds its inputs, run makes one
// pass over its operations in a closed loop.
type workload interface {
	setup(b *bench) error
	run(b *bench, p *pass)
}

// bench is one run of one workload: the seed, the tracer (nil when
// untraced), the operation counter and the deterministic counters of the
// phase in progress.
type bench struct {
	cfg    config
	seed   int64
	tr     *tracer
	ops    int64
	counts map[string]float64
}

func (b *bench) add(name string, v float64) { b.counts[name] += v }

// operation opens one operation of a pass: it returns the operation's id,
// its root span, and the function that closes the span and counts the
// operation as failed when it named a failure.
func (b *bench) operation(p *pass, kind, label string) (op, root int64, done func()) {
	b.ops++
	op = b.ops
	root, end := b.tr.begin(kind, label, 0, op)
	p.ops++
	n := len(p.failures)
	return op, root, func() {
		end()
		if len(p.failures) > n {
			p.failed++
		}
	}
}

// buildSuite builds the 12 applications and re-seeds every input from the
// benchmark seed: array contents through Store.FillRandom, and each index
// array as a fresh permutation, so the library sees only generated inputs.
func (b *bench) buildSuite() ([]*workloads.App, error) {
	var apps []*workloads.App
	for i, name := range workloads.Names() {
		_, end := b.tr.begin("workloads.Build", "", 0, 0)
		app, err := workloads.Build(name, b.cfg.scale)
		end()
		if err != nil {
			return nil, err
		}
		appSeed := b.seed*1_000_003 + int64(i)*7919
		app.Store.FillRandom(app.Prog, appSeed)
		rng := rand.New(rand.NewSource(appSeed ^ 0x5eed))
		for _, ix := range app.IndexArrays {
			n := app.Prog.Array(ix).Len
			for j, v := range rng.Perm(n) {
				app.Store.Set(ix, j, float64(v))
			}
		}
		apps = append(apps, app)
	}
	return apps, nil
}

// partitionOptions are the evaluation defaults of the experiment harness
// (6x6 quadrant mesh, fusion on, sampled L2 predictor) with the workload's
// window setting and worker pool.
func partitionOptions(cfg config) core.Options {
	opts := exp.NewRunner(cfg.scale).Opts
	opts.FixedWindow = cfg.window
	opts.Jobs = cfg.jobs
	return opts
}

// partition calls core.Partition and counts what it produced.
func (b *bench) partition(app *workloads.App, nest *ir.Nest, opts core.Options, parent, op int64) (*core.Result, error) {
	_, end := b.tr.begin("core.Partition", "", parent, op)
	res, err := core.Partition(app.Prog, nest, app.Store, opts)
	end()
	if err != nil {
		return nil, err
	}
	b.add("core.Partition.calls", 1)
	b.add("core.Partition.instances", float64(res.Stats.Instances))
	b.add("core.Partition.windows_scored", float64(len(res.MovementBySize)))
	b.add("core.Partition.reuse_hits", float64(res.Stats.ReuseHits))
	if res.UsedInspector {
		b.add("core.Partition.inspector_nests", 1)
	}
	if res.Fusion != nil {
		b.add("fusion.Coarsen.merges", float64(res.Fusion.Originals()-len(res.FusedNest.Body)))
	}
	b.countSchedule("core.Partition", res.Schedule)
	return res, nil
}

// countSchedule counts a schedule's tasks, fetches and sync arcs.
func (b *bench) countSchedule(layer string, s *core.Schedule) {
	fetches := 0
	for _, t := range s.Tasks {
		fetches += len(t.Fetches)
	}
	b.add(layer+".tasks", float64(len(s.Tasks)))
	b.add(layer+".fetches", float64(fetches))
	b.add(layer+".sync_arcs", float64(s.SyncsAfter))
}

// place calls baseline.Place, the locality-optimized default placement.
func (b *bench) place(app *workloads.App, nest *ir.Nest, opts core.Options, parent, op int64) (*baseline.Result, error) {
	_, end := b.tr.begin("baseline.Place", "", parent, op)
	res, err := baseline.Place(app.Prog, nest, app.Store, opts, baseline.ProfiledLocality)
	end()
	if err != nil {
		return nil, err
	}
	b.countSchedule("baseline.Place", res.Schedule)
	return res, nil
}

// check runs verify.Check; tag names the caller. It returns the report's
// error, so a violation is an error like an infrastructure failure. Only
// the output checks count violations, since each one is a failure; a
// violation the repair gates ("repair", "recover") report is a rejected
// candidate, which their accept_ratio counts.
func (b *bench) check(tag string, in verify.Input, parent, op int64) error {
	_, end := b.tr.begin("verify.Check", tag, parent, op)
	rep, err := verify.Check(in, verify.Options{})
	end()
	if err != nil {
		return err
	}
	b.add("verify.Check.calls."+tag, 1)
	b.add("verify.Check.deps_checked", float64(rep.DepsChecked))
	b.add("verify.Check.tasks", float64(rep.Tasks))
	b.add("verify.Check.redundant_arcs", float64(rep.RedundantArcs))
	if tag != "repair" && tag != "recover" {
		b.add("verify.Check.violations", float64(rep.ViolationCount))
	}
	return rep.Err()
}

// simulate calls sim.Run; tag "checkpoint" marks the instrumented runs that
// cut fault checkpoints.
func (b *bench) simulate(tag string, s *core.Schedule, cfg sim.Config, parent, op int64) (*sim.Result, error) {
	_, end := b.tr.begin("sim.Run", tag, parent, op)
	res, err := sim.Run(s, cfg)
	end()
	if err != nil {
		return nil, err
	}
	b.add("sim.Run.calls", 1)
	b.add("sim.Run.transfers", float64(res.Transfers))
	b.add("sim.Run.sync_stall_cycles", res.SyncStall)
	return res, nil
}

// offClock runs the benchmark's own output checks with the pass clock
// stopped and tracing off, so pass_s and the per-layer times cover only the
// workload's calls.
func (b *bench) offClock(p *pass, checks func()) {
	tr := b.tr
	b.tr = nil
	t0 := time.Now()
	checks()
	p.offClock += time.Since(t0)
	b.tr = tr
}
