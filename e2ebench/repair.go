package main

import (
	"context"
	"fmt"
	"time"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// faultLevels are the arrival ladder: 1 dead link; 3 dead links; 3 dead
// links and 1 dead non-MC tile. Every event draws its own fault set, so the
// run's totals average over 216 independent draws rather than 24, which
// keeps them steady from one seed to the next.
var faultLevels = []struct{ links, tiles int }{{1, 0}, {3, 0}, {3, 1}}

// arrivalFracs place each fault arrival at a fraction of the pristine
// makespan.
var arrivalFracs = []float64{0.25, 0.5, 0.75}

// faultEvent is one mid-run fault arrival on one partitioned nest.
type faultEvent struct {
	label    string
	app      *workloads.App
	part     *core.Result
	faults   *mesh.FaultSet
	ck       *core.Checkpoint
	pristine float64 // fault-free makespan, cycles
}

// repairWorkload repairs every fault event's residual schedule online, then
// revives the dead elements and re-integrates.
type repairWorkload struct {
	events []*faultEvent
	opts   core.Options
	simCfg sim.Config
}

// setup partitions every nest at the fault sweeps' fixed window, simulates it
// fault-free, and cuts every event's checkpoint in one instrumented run.
func (w *repairWorkload) setup(b *bench) error {
	apps, err := b.buildSuite()
	if err != nil {
		return err
	}
	w.opts = partitionOptions(b.cfg)
	w.simCfg = sim.DefaultConfig(w.opts.Mesh)
	eventIdx := 0
	for _, app := range apps {
		for _, nest := range app.Nests {
			part, err := b.partition(app, nest, w.opts, 0, 0)
			if err != nil {
				return fmt.Errorf("%s: partition: %w", nest.Name, err)
			}
			base, err := b.simulate("", part.Schedule, w.simCfg, 0, 0)
			if err != nil {
				return fmt.Errorf("%s: pristine simulation: %w", nest.Name, err)
			}
			evCfg := w.simCfg
			var evs []*faultEvent
			for _, lvl := range faultLevels {
				for _, frac := range arrivalFracs {
					faultSeed := b.seed*7_919 + int64(eventIdx)*1_000_003
					eventIdx++
					fs := mesh.Inject(w.opts.Mesh, faultSeed, lvl.links, 0, lvl.tiles, true)
					evCfg.FaultEvents = append(evCfg.FaultEvents, sim.FaultEvent{Cycle: frac * base.Cycles, Faults: fs})
					evs = append(evs, &faultEvent{
						label: fmt.Sprintf("%s links=%d tiles=%d at=%.2f seed=%d", nest.Name, lvl.links, lvl.tiles, frac, faultSeed),
						app:   app, part: part, faults: fs, pristine: base.Cycles,
					})
				}
			}
			cks, err := b.simulate("checkpoint", part.Schedule, evCfg, 0, 0)
			if err != nil {
				return fmt.Errorf("%s: checkpointing simulation: %w", nest.Name, err)
			}
			for i, ev := range evs {
				ev.ck = cks.Checkpoints[i]
			}
			w.events = append(w.events, evs...)
		}
	}
	return nil
}

func (w *repairWorkload) run(b *bench, p *pass) {
	for _, ev := range w.events {
		w.event(b, ev, p)
	}
}

// checker is the verifier gate handed to the repair calls: it verifies the
// candidate on the given fault set, skipping completed instances.
func (w *repairWorkload) checker(b *bench, tag string, ev *faultEvent, fs *mesh.FaultSet, completed func(iter, stmt int) bool, parent, op int64) core.RepairChecker {
	return func(s *core.Schedule) error {
		return b.check(tag, verify.Input{
			Prog: ev.app.Prog, Nest: ev.part.ScheduleNest(), Store: ev.app.Store,
			Schedule: s, Mesh: w.opts.Mesh, Faults: fs,
			Layout: w.opts.Layout, Translations: ev.part.Translations,
			Labels: ev.part.LineLabels, Completed: completed,
		}, parent, op)
	}
}

// event is one operation: the timed repair from the checkpoint to a
// verifier-clean residual, then the timed re-integration after every dead
// element revives. Off the pass clock, the accepted residual is
// re-simulated on the degraded mesh from the checkpoint's node horizons,
// and the re-integrated schedule is verified on the recovered mesh.
func (w *repairWorkload) event(b *bench, ev *faultEvent, p *pass) {
	op, root, done := b.operation(p, "event", ev.label)
	defer done()
	m := w.opts.Mesh
	ro := core.RepairOptions{LoadThreshold: w.opts.LoadThreshold}

	t0 := time.Now()
	completed := ev.ck.CompletedInstances(ev.part.Schedule)
	rid, rend := b.tr.begin("core.RepairOnline", "", root, op)
	residual, orep, err := core.RepairOnline(ev.part.Schedule, ev.ck, m, ev.faults, ro,
		w.checker(b, "repair", ev, ev.faults, completed, rid, op))
	rend()
	if err != nil {
		p.fail("%s: repair: %v", ev.label, err)
		return
	}
	p.took(&p.lat, t0)
	b.add("core.RepairOnline.accepted", 1)
	b.add("core.RepairOnline.residual_tasks", float64(orep.ResidualTasks))
	b.add("core.RepairOnline.migration_bytes_hops", float64(orep.MigrationTraffic))
	if orep.Repair.Full {
		b.add("core.RepairOnline.escalations", 1)
	}

	var rs *sim.Result
	b.offClock(p, func() {
		resCfg := w.simCfg
		resCfg.Faults = ev.faults
		resCfg.NodeFreeAt = ev.ck.NodeFree
		rs, err = b.simulate("", residual, resCfg, root, op)
	})
	if err != nil {
		p.fail("%s: degraded simulation rejected the accepted residual: %v", ev.label, err)
		return
	}

	cleared := ev.faults.Clone()
	cleared.Revive(ev.faults.RecoveryAll())
	revived := mesh.RevivedNodes(m, ev.faults, cleared)
	churn := core.NewChurnState()
	churn.Observe(m, ev.faults)
	churn.Observe(m, cleared)
	t1 := time.Now()
	gid, gend := b.tr.begin("core.ReintegrateOnline", "", root, op)
	back, rrep, err := core.ReintegrateOnline(context.Background(), residual, nil, m, cleared, revived, ro, churn,
		w.checker(b, "recover", ev, cleared, completed, gid, op))
	gend()
	if err != nil {
		p.fail("%s: re-integration: %v", ev.label, err)
		return
	}
	p.took(&p.recover, t1)
	b.add("core.ReintegrateOnline.candidates", float64(rrep.Candidates))
	b.add("core.ReintegrateOnline.migrated", float64(rrep.Migrated))
	if rrep.Accepted {
		b.add("core.ReintegrateOnline.accepted", 1)
	}
	b.offClock(p, func() { err = w.checker(b, "reintegrated", ev, cleared, completed, root, op)(back) })
	if err != nil {
		p.fail("%s: re-integrated schedule: %v", ev.label, err)
		return
	}

	b.add("q.bytes_hops", float64(orep.MigrationTraffic+orep.Repair.MovementAfter))
	b.add("q.ref_bytes_hops", float64(orep.Repair.MovementBefore))
	b.add("q.sim_cycles", rs.Cycles)
	b.add("q.ref_sim_cycles", ev.pristine)
	b.add("q.energy_nj", rs.Energy.Total())
	b.add("q.sync_arcs", float64(residual.SyncsAfter))
}
