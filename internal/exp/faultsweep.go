package exp

import (
	"context"
	"fmt"

	"dmacp/internal/core"
	"dmacp/internal/mesh"
	"dmacp/internal/sim"
	"dmacp/internal/stats"
)

// FaultLevel is one degradation step of the sweep: how many links, routers
// and tiles die. Levels injected from one seed are nested (the same shuffle
// prefix picks the links), so movement at level k+1 is comparable to level k.
type FaultLevel struct {
	Links, Routers, Tiles int
}

func (l FaultLevel) String() string {
	return fmt.Sprintf("%dL/%dR/%dT", l.Links, l.Routers, l.Tiles)
}

// faultLevels is the fault sweep's acceptance ladder, mildest first: no
// faults, 1..3 dead links, then 3 dead links + 1 dead non-MC tile.
var faultLevels = []FaultLevel{
	{}, {Links: 1}, {Links: 2}, {Links: 3}, {Links: 3, Tiles: 1},
}

// FaultSweepResult aggregates one sweep.
type FaultSweepResult struct {
	// MovementRatio[k] is the mean repaired-movement / pristine-movement
	// over all schedules at faultLevels[k],
	// and CycleRatio[k] the same for simulated cycles. RatioP95 and RatioMax
	// are the p95 and maximum movement ratio at each level, so regressions
	// in the tail are visible next to the mean.
	MovementRatio []float64
	CycleRatio    []float64
	RatioP95      []float64
	RatioMax      []float64
	// WorstApps lists each workload with its worst (maximum) movement ratio
	// over every level/series it contributed to, in suite order.
	WorstApps []AppWorstCase
	// Repaired counts schedules that survived repair + verification;
	// Migrated and AddedArcs sum the repair work across them; FullRepairs
	// counts repairs that needed the full re-placement escalation.
	Repaired    int
	Migrated    int
	AddedArcs   int
	FullRepairs int
	// Violations holds one line per failure: a repair that errored on a
	// repairable mesh, a repaired schedule the verifier refuted, or a
	// simulation that rejected a repaired schedule. Empty means every
	// surviving schedule is dependence-sound.
	Violations []string
	// NonMonotonic holds one line per level whose mean movement ratio fell
	// more than the tolerance below its predecessor's — degradation should
	// grow (approximately) with fault count since levels are nested.
	NonMonotonic []string
}

// AppWorstCase is one workload's worst repaired-movement ratio across a
// sweep, with the level where it occurred.
type AppWorstCase struct {
	App   string
	Ratio float64
	Level FaultLevel
}

// monotonicTolerance is how far a level's mean movement ratio may fall below
// its predecessor before the sweep flags it: repair re-placement can trade a
// little movement for load balance, but nested fault sets must not get
// systematically cheaper.
const monotonicTolerance = 0.02

// FaultSweep partitions every workload nest at the sweep variant, injects
// the nested fault ladder into the mesh, repairs each schedule through the
// verifier-gated path (incremental migration, then full re-placement),
// statically verifies every survivor against the IR with fault-aware
// structural checks, and simulates it on the degraded mesh. It asserts the
// robustness contract: no surviving schedule drops a dependence, and data
// movement degrades monotonically-reasonably with fault count.
func FaultSweep(cfg SweepConfig) (*FaultSweepResult, error) {
	cfg = cfg.withDefaults()
	nl := len(faultLevels)
	res := &FaultSweepResult{WorstApps: make([]AppWorstCase, len(cfg.Apps))}
	for ai, name := range cfg.Apps {
		res.WorstApps[ai].App = name
	}
	sums := make([]float64, nl)
	csums := make([]float64, nl)
	counts := make([]int, nl)
	perLevel := make([][]float64, nl)
	err := runSweep(cfg, faultSeries, func(s sweepSeries, out *faultPartial) {
		w := &res.WorstApps[s.appIdx]
		for li := range faultLevels {
			sums[li] += out.sums[li]
			csums[li] += out.csums[li]
			counts[li] += out.counts[li]
			// Each series contributes at most one schedule per level, so its
			// level sum is that schedule's ratio.
			if out.counts[li] == 1 {
				perLevel[li] = append(perLevel[li], out.sums[li])
				if out.sums[li] > w.Ratio {
					w.Ratio, w.Level = out.sums[li], faultLevels[li]
				}
			}
		}
		res.Repaired += out.repaired
		res.Migrated += out.migrated
		res.AddedArcs += out.addedArcs
		res.FullRepairs += out.fullRepairs
		res.Violations = append(res.Violations, out.violations...)
	})
	if err != nil {
		return nil, err
	}

	res.MovementRatio = make([]float64, nl)
	res.CycleRatio = make([]float64, nl)
	res.RatioP95 = make([]float64, nl)
	res.RatioMax = make([]float64, nl)
	for i := range faultLevels {
		if counts[i] > 0 {
			res.MovementRatio[i] = sums[i] / float64(counts[i])
			res.CycleRatio[i] = csums[i] / float64(counts[i])
		}
		res.RatioP95[i] = stats.Percentile(perLevel[i], 95)
		res.RatioMax[i] = stats.Max(perLevel[i])
	}
	for i := 1; i < nl; i++ {
		if counts[i] == 0 || counts[i-1] == 0 {
			continue
		}
		if res.MovementRatio[i] < res.MovementRatio[i-1]-monotonicTolerance {
			res.NonMonotonic = append(res.NonMonotonic, fmt.Sprintf(
				"level %s mean movement ratio %.4f fell below level %s's %.4f",
				faultLevels[i], res.MovementRatio[i], faultLevels[i-1], res.MovementRatio[i-1]))
		}
	}
	return res, nil
}

// faultPartial is one series' share of a FaultSweepResult.
type faultPartial struct {
	sums, csums []float64 // per level
	counts      []int
	repaired    int
	migrated    int
	addedArcs   int
	fullRepairs int
	violations  []string
}

// faultSeries runs the fault ladder over one nest.
func faultSeries(s sweepSeries) (out faultPartial, err error) {
	p, err := s.pristine()
	if err != nil {
		return out, err
	}
	out.sums = make([]float64, len(faultLevels))
	out.csums = make([]float64, len(faultLevels))
	out.counts = make([]int, len(faultLevels))
	for li, lvl := range faultLevels {
		variant := fmt.Sprintf("%s level=%s", p.variant, lvl)
		// One seed per series: level k+1's links are a superset of level
		// k's (nested ladder).
		fs := mesh.Inject(p.opts.Mesh, s.seed, lvl.Links, lvl.Routers, lvl.Tiles, true)
		repaired, rep, err := core.RepairVerifiedCtx(context.Background(), p.part.Schedule, p.opts.Mesh, fs,
			core.RepairOptions{LoadThreshold: p.opts.LoadThreshold}, p.gate(fs, nil))
		if err != nil {
			out.violations = append(out.violations, fmt.Sprintf("%s: %v", variant, err))
			continue
		}
		out.repaired++
		out.migrated += rep.Migrated
		out.addedArcs += rep.AddedArcs
		if rep.Full {
			out.fullRepairs++
		}
		if rep.MovementBefore > 0 {
			out.sums[li] += float64(rep.MovementAfter) / float64(rep.MovementBefore)
			out.counts[li]++
		}
		simCfg := p.simCfg
		simCfg.Faults = fs
		sr, err := sim.Run(repaired, simCfg)
		if err != nil {
			out.violations = append(out.violations,
				fmt.Sprintf("%s: degraded simulation rejected the repaired schedule: %v", variant, err))
			continue
		}
		if p.base.Cycles > 0 {
			out.csums[li] += sr.Cycles / p.base.Cycles
		}
	}
	return out, nil
}

// FaultSweep exposes the fault-injection harness as an experiment entry.
func (r *Runner) FaultSweep() (*Experiment, error) {
	res, err := FaultSweep(SweepConfig{Scale: r.Scale, Jobs: r.Jobs})
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:         "faultsweep",
		Title:      "Fault injection: degraded-mesh repair gated by the race detector",
		PaperClaim: "repaired schedules stay dependence-sound; movement degrades with fault count (robustness extension, not in the paper)",
		Table:      &stats.Table{Header: []string{"Fault level", "Movement mean/p95/max", "Cycle ratio"}},
		Headline: map[string]float64{
			"violations": float64(len(res.Violations) + len(res.NonMonotonic)),
		},
	}
	for i, lvl := range faultLevels {
		e.Table.Add(lvl.String(), fmt.Sprintf("%.4f  %.4f  %.4f", res.MovementRatio[i], res.RatioP95[i], res.RatioMax[i]),
			fmt.Sprintf("%.4f", res.CycleRatio[i]))
	}
	for _, w := range res.WorstApps {
		e.Table.Add("worst "+w.App, fmt.Sprintf("%.4f @ %s", w.Ratio, w.Level))
	}
	e.Table.Add("schedules repaired+verified", res.Repaired)
	e.Table.Add("tasks migrated", res.Migrated)
	e.Table.Add("sync arcs added", res.AddedArcs)
	e.Table.Add("full re-placements", res.FullRepairs)
	e.Table.Add("violations", len(res.Violations))
	addCapped(e.Table, "violation", res.Violations)
	for _, nm := range res.NonMonotonic {
		e.Table.Add("non-monotonic", nm)
	}
	return e, nil
}
