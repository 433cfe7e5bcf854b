package core_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// onlineLevels are the fault ladder of the online repair events: 1 dead
// link; 3 dead links; 3 dead links and 1 dead non-MC tile.
var onlineLevels = []struct{ links, tiles int }{{1, 0}, {3, 0}, {3, 1}}

// onlineArrivals place each fault arrival at a fraction of the pristine
// makespan.
var onlineArrivals = []float64{0.25, 0.5, 0.75}

// onlineEvent is one mid-run fault arrival on one partitioned nest.
type onlineEvent struct {
	label  string
	app    *workloads.App
	part   *core.Result
	faults *mesh.FaultSet
	ck     *core.Checkpoint
	opts   core.Options
}

// onlineEvents partitions every nest of the 12 workloads at window 4 and
// cuts one checkpoint per (level, arrival) event in a single simulation per
// nest. Every event draws its own fault set from a fixed seed.
func onlineEvents(tb testing.TB, scale workloads.Scale) []*onlineEvent {
	tb.Helper()
	opts := goldenOpts()
	opts.FixedWindow = 4
	simCfg := sim.DefaultConfig(opts.Mesh)
	var events []*onlineEvent
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, scale)
		if err != nil {
			tb.Fatal(err)
		}
		for _, nest := range app.Nests {
			part, err := core.Partition(app.Prog, nest, app.Store, opts)
			if err != nil {
				tb.Fatalf("%s: %v", nest.Name, err)
			}
			base, err := sim.Run(part.Schedule, simCfg)
			if err != nil {
				tb.Fatalf("%s: pristine simulation: %v", nest.Name, err)
			}
			evCfg := simCfg
			var evs []*onlineEvent
			for _, lvl := range onlineLevels {
				for _, frac := range onlineArrivals {
					seed := int64(len(events)+len(evs)+1) * 7_919
					fs := mesh.Inject(opts.Mesh, seed, lvl.links, 0, lvl.tiles, true)
					evCfg.FaultEvents = append(evCfg.FaultEvents, sim.FaultEvent{Cycle: frac * base.Cycles, Faults: fs})
					evs = append(evs, &onlineEvent{
						label: fmt.Sprintf("%s links=%d tiles=%d at=%.2f seed=%d", nest.Name, lvl.links, lvl.tiles, frac, seed),
						app:   app, part: part, faults: fs, opts: opts,
					})
				}
			}
			cks, err := sim.Run(part.Schedule, evCfg)
			if err != nil {
				tb.Fatalf("%s: checkpointing simulation: %v", nest.Name, err)
			}
			for i, ev := range evs {
				ev.ck = cks.Checkpoints[i]
			}
			events = append(events, evs...)
		}
	}
	return events
}

// gate is the verifier gate for the event's residual on fault set f.
func (ev *onlineEvent) gate(f *mesh.FaultSet, completed func(iter, stmt int) bool) core.RepairChecker {
	return verify.Gate(verify.Input{
		Prog: ev.app.Prog, Nest: ev.part.ScheduleNest(), Store: ev.app.Store,
		Mesh: ev.opts.Mesh, Faults: f, Layout: ev.opts.Layout,
		Translations: ev.part.Translations, Labels: ev.part.LineLabels,
		Completed: completed,
	})
}

// onlineOutcome is what one event's repair and re-integration produced.
type onlineOutcome struct {
	residual, back *core.Schedule
	online         *core.OnlineReport
	reint          *core.ReintegrateReport
}

// run repairs the event's residual online under the verifier gate, then
// revives every dead element and re-integrates, gated on the recovered mesh.
func (ev *onlineEvent) run() (*onlineOutcome, error) {
	m := ev.opts.Mesh
	ro := core.RepairOptions{LoadThreshold: ev.opts.LoadThreshold}
	completed := ev.ck.CompletedInstances(ev.part.Schedule)
	residual, orep, err := core.RepairOnline(ev.part.Schedule, ev.ck, m, ev.faults, ro, ev.gate(ev.faults, completed))
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	cleared := ev.faults.Clone()
	cleared.Revive(ev.faults.RecoveryAll())
	revived := mesh.RevivedNodes(m, ev.faults, cleared)
	churn := core.NewChurnState()
	churn.Observe(m, ev.faults)
	churn.Observe(m, cleared)
	back, rrep, err := core.ReintegrateOnline(context.Background(), residual, nil, m, cleared, revived, ro, churn,
		ev.gate(cleared, completed))
	if err != nil {
		return nil, fmt.Errorf("re-integration: %w", err)
	}
	return &onlineOutcome{residual: residual, back: back, online: orep, reint: rrep}, nil
}

// repairGoldenLine renders one event: the online, repair and re-integration
// reports and a digest over the residual and re-integrated schedules.
func repairGoldenLine(label string, out *onlineOutcome) string {
	o := out.online
	d := digest{fnv.New64a()}
	for _, s := range []*core.Schedule{out.residual, out.back} {
		d.tasks(s.Tasks)
		d.i(s.SyncsBefore)
		d.i(s.SyncsAfter)
		d.i(s.Instances)
	}
	return fmt.Sprintf("%s online={completed=%d residual=%d inflight=%d migration=%d spilled=%d rehomed=%d dropped=%d converted=%d} repair=%+v reint=%+v digest=%016x",
		label, o.CompletedTasks, o.ResidualTasks, o.InFlightTasks, o.MigrationTraffic, o.SpilledL1Lines,
		o.RehomedPages, o.DroppedArcs, o.ConvertedFetches, *o.Repair, *out.reint, d.h.Sum64())
}

// TestRepairGolden pins online repair and re-integration on every nest of
// all 12 workloads at test scale — 3 fault levels x 3 arrival fractions per
// nest — against testdata/repair.golden. After an intended output change,
// regenerate it with `go test ./internal/core -run TestRepairGolden -update`
// and review the diff.
func TestRepairGolden(t *testing.T) {
	var b strings.Builder
	for _, ev := range onlineEvents(t, workloads.TestScale()) {
		out, err := ev.run()
		if err != nil {
			fmt.Fprintf(&b, "%s error=%v\n", ev.label, err)
			continue
		}
		b.WriteString(repairGoldenLine(ev.label, out))
		b.WriteByte('\n')
	}
	checkGolden(t, "repair.golden", b.String())
}
