package main

import (
	"fmt"
	"time"

	"dmacp/internal/core"
	"dmacp/internal/fusion"
	"dmacp/internal/ir"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// compileWorkload takes every nest of the suite to two verified, simulated
// schedules: the partitioner's and the default placement.
type compileWorkload struct {
	apps   []*workloads.App
	opts   core.Options
	simCfg sim.Config
}

func (w *compileWorkload) setup(b *bench) error {
	apps, err := b.buildSuite()
	if err != nil {
		return err
	}
	w.apps = apps
	w.opts = partitionOptions(b.cfg)
	w.simCfg = sim.DefaultConfig(w.opts.Mesh)
	// Warm-up: one nest through the pipeline fills the lazily built mesh
	// tables, untraced and uncounted.
	tr, counts := b.tr, b.counts
	b.tr, b.counts = nil, map[string]float64{}
	var p pass
	w.nest(b, apps[0], apps[0].Nests[0], &p)
	b.tr, b.counts = tr, counts
	if len(p.failures) > 0 {
		return fmt.Errorf("warm-up: %s", p.failures[0])
	}
	return nil
}

func (w *compileWorkload) run(b *bench, p *pass) {
	for _, app := range w.apps {
		for _, nest := range app.Nests {
			w.nest(b, app, nest, p)
		}
	}
}

// nest is one operation: Partition, Place, verify and simulate both
// schedules. Its latency is the whole chain; it fails on any error, any
// verifier violation, or a simulator rejection.
func (w *compileWorkload) nest(b *bench, app *workloads.App, nest *ir.Nest, p *pass) {
	op, root, done := b.operation(p, "nest", nest.Name)
	defer done()
	if b.tr != nil {
		// The traced run times the coarsening pre-pass on its own, beside
		// the Partition call that runs it internally.
		_, cend := b.tr.begin("fusion.Coarsen", "", root, op)
		fusion.Coarsen(app.Prog, nest, fusion.Limits{L1Bytes: w.opts.L1Bytes, LineBytes: w.opts.Layout.LineBytes})
		cend()
	}
	t0 := time.Now()
	opt, err := b.partition(app, nest, w.opts, root, op)
	if err != nil {
		p.fail("%s: partition: %v", nest.Name, err)
		return
	}
	def, err := b.place(app, nest, w.opts, root, op)
	if err != nil {
		p.fail("%s: baseline: %v", nest.Name, err)
		return
	}
	in := verify.Input{
		Prog: app.Prog, Nest: opt.ScheduleNest(), Store: app.Store,
		Schedule: opt.Schedule, Mesh: w.opts.Mesh, Layout: w.opts.Layout,
		Translations: opt.Translations, Labels: opt.LineLabels,
	}
	if err := b.check("optimized", in, root, op); err != nil {
		p.fail("%s: optimized schedule: %v", nest.Name, err)
	}
	in = verify.Input{
		Prog: app.Prog, Nest: nest, Store: app.Store,
		Schedule: def.Schedule, Mesh: w.opts.Mesh, Layout: w.opts.Layout,
		Translations: def.Translations,
	}
	if err := b.check("default", in, root, op); err != nil {
		p.fail("%s: default schedule: %v", nest.Name, err)
	}
	so, err := b.simulate("", opt.Schedule, w.simCfg, root, op)
	if err != nil {
		p.fail("%s: simulating optimized schedule: %v", nest.Name, err)
		return
	}
	sd, err := b.simulate("", def.Schedule, w.simCfg, root, op)
	if err != nil {
		p.fail("%s: simulating default schedule: %v", nest.Name, err)
		return
	}
	p.took(&p.lat, t0)

	b.add("q.bytes_hops", float64(opt.Stats.TotalMovement))
	b.add("q.ref_bytes_hops", float64(def.TotalMovement))
	b.add("q.sim_cycles", so.Cycles)
	b.add("q.ref_sim_cycles", sd.Cycles)
	b.add("q.energy_nj", so.Energy.Total())
	b.add("q.sync_arcs", float64(opt.Schedule.SyncsAfter))
}
