package exp

import (
	"fmt"

	"dmacp/internal/core"
	"dmacp/internal/ir"
	"dmacp/internal/mesh"
	"dmacp/internal/par"
	"dmacp/internal/sim"
	"dmacp/internal/stats"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// SweepConfig parameterizes the workload sweeps (fault, online, churn and
// fusion). What each sweep varies over — fault ladders, arrival points,
// churn cycles — is fixed by package constants next to the sweep.
type SweepConfig struct {
	// Apps lists the workloads to sweep (default: all 12).
	Apps []string
	// Scale sizes each workload build (default workloads.TestScale()).
	Scale workloads.Scale
	// Seed drives fault injection (default 1); the series at position i in
	// suite order derives its own sub-seed Seed + i*1000003.
	Seed int64
	// Jobs bounds the worker pool the series run on. <= 0 means one worker
	// per CPU; 1 forces the serial sweep. The result is identical at every
	// setting: series are enumerated and seeded up front and their partial
	// results merge in series order, so float accumulation order — and
	// therefore every reported digit — matches the serial sweep.
	Jobs int
}

func (c SweepConfig) withDefaults() SweepConfig {
	if len(c.Apps) == 0 {
		c.Apps = workloads.Names()
	}
	if c.Scale.Iters <= 0 {
		c.Scale = workloads.TestScale()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Every sweep partitions at one variant: quadrant cluster mode and a fixed
// statement window of 4, which skips the 8-pass adaptive search and keeps
// the sweeps fast.
const (
	sweepMode   = mesh.Quadrant
	sweepWindow = 4
)

// sweepSeries is one independent unit of a sweep: one loop nest of one
// workload, with its fault-injection sub-seed.
type sweepSeries struct {
	app    *workloads.App
	appIdx int // position of app in SweepConfig.Apps
	nest   *ir.Nest
	seed   int64
}

// runSweep builds cfg's workloads (cfg already defaulted), enumerates one
// series per (app, nest) in suite order, runs each on the worker pool into
// its own slot, and hands the slots to merge in series order. The first
// series error in that order is returned, so the merged result and the error
// are the same at every Jobs setting.
func runSweep[T any](cfg SweepConfig, run func(sweepSeries) (T, error), merge func(sweepSeries, *T)) error {
	var series []sweepSeries
	for ai, name := range cfg.Apps {
		app, err := workloads.Build(name, cfg.Scale)
		if err != nil {
			return err
		}
		for _, nest := range app.Nests {
			series = append(series, sweepSeries{
				app: app, appIdx: ai, nest: nest,
				seed: cfg.Seed + int64(len(series))*1000003,
			})
		}
	}
	outs, err := fanOut(cfg.Jobs, len(series), func(i int) (T, error) { return run(series[i]) })
	if err != nil {
		return err
	}
	for i := range outs {
		merge(series[i], &outs[i])
	}
	return nil
}

// fanOut runs fn for every index in [0, n) on up to jobs workers, each into
// its own slot, and returns the slots in index order — or the error the
// serial loop would have stopped at first.
func fanOut[T any](jobs, n int, fn func(i int) (T, error)) ([]T, error) {
	outs := make([]T, n)
	errs := make([]error, n)
	if err := par.ForEach(jobs, n, func(i int) { outs[i], errs[i] = fn(i) }); err != nil {
		return nil, err
	}
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return outs, nil
}

// pristineRun is the fault-free starting point of a fault, online or churn
// series: the nest partitioned at the sweep variant and simulated on the
// intact mesh.
type pristineRun struct {
	sweepSeries
	opts    core.Options
	part    *core.Result
	simCfg  sim.Config
	base    *sim.Result
	variant string // "<nest> mode=<mode> w=<window>", the prefix of every diagnostic
}

// sweepOptions is the partitioner configuration at the sweep variant.
func sweepOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Mode = sweepMode
	opts.FixedWindow = sweepWindow
	return opts
}

func (s sweepSeries) pristine() (*pristineRun, error) {
	p := &pristineRun{sweepSeries: s, opts: sweepOptions()}
	p.variant = fmt.Sprintf("%s mode=%v w=%d", s.nest.Name, sweepMode, sweepWindow)
	var err error
	if p.part, err = core.Partition(s.app.Prog, s.nest, s.app.Store, p.opts); err != nil {
		return nil, fmt.Errorf("exp: %s: %w", p.variant, err)
	}
	p.simCfg = sim.DefaultConfig(p.opts.Mesh)
	if p.base, err = sim.Run(p.part.Schedule, p.simCfg); err != nil {
		return nil, fmt.Errorf("exp: %s base sim: %w", p.variant, err)
	}
	return p, nil
}

// movement is the pristine schedule's movement, the denominator of every
// online and churn ratio.
func (p *pristineRun) movement() (int64, error) {
	m, err := core.MovementOn(p.part.Schedule, p.opts.Mesh, nil)
	if err != nil || m == 0 {
		return 0, fmt.Errorf("exp: %s pristine movement: %v", p.variant, err)
	}
	return m, nil
}

// gate is the verifier gate for repairs of the pristine schedule on the
// degraded mesh f; completed, when set, exempts the instances a checkpoint
// already finished.
func (p *pristineRun) gate(f *mesh.FaultSet, completed func(iter, stmt int) bool) core.RepairChecker {
	return verify.Gate(verify.Input{
		Prog: p.app.Prog, Nest: p.part.ScheduleNest(), Store: p.app.Store,
		Mesh: p.opts.Mesh, Faults: f, Layout: p.opts.Layout,
		Translations: p.part.Translations, Labels: p.part.LineLabels,
		Completed: completed,
	})
}

// addCapped lists the first three items as "<label> 1".."<label> 3" rows and
// counts the rest in one "..." row.
func addCapped(t *stats.Table, label string, items []string) {
	for i, v := range items {
		if i == 3 {
			t.Add("...", fmt.Sprintf("%d more", len(items)-3))
			return
		}
		t.Add(fmt.Sprintf("%s %d", label, i+1), v)
	}
}
