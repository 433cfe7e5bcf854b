// Command e2ebench is the repository benchmark. It drives the library from
// outside, in one process and a closed loop — one client that waits for each
// result before it sends the next nest or fault event — and prints every
// metric by name with its unit. Every schedule it emits, repairs or
// re-integrates is checked; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
//
//	e2ebench --workload compile-adaptive --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that records a span around every layer call, writes them as
// Chrome trace-event JSON and reports the per-layer metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name: compile-adaptive, compile-window1 or online-repair")
	seed := fl.Int64("seed", 1, "seed the inputs and fault sets are generated from")
	seconds := fl.Float64("seconds", 10, "how long the timed passes run")
	trace := fl.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	cfg, err := configByName(*name)
	if err != nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "e2ebench: bad arguments (%v)\n", err)
		return 2
	}
	out, err := measure(cfg, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s seed %d: %v\n", cfg.name, *seed, err)
		return 1
	}
	if *trace == 1 {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.name, *seed))
		if err := out.tr.writeChrome(path, out.record); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing trace: %v\n", err)
			return 1
		}
		writeLayerTable(stdout, cfg.name, out.layers, out.layerCounts)
		fmt.Fprintf(stdout, "# trace written to %s\n", path)
	}
	rec, _ := json.Marshal(map[string]any{"record": out.record})
	fmt.Fprintln(stdout, string(rec))
	res, _ := json.Marshal(map[string]any{
		"correct": out.correct, "attempted": out.attempted, "failed": out.failed, "metrics": out.metrics,
	})
	fmt.Fprintln(stdout, string(res))
	return 0
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is everything one run measured.
type outcome struct {
	correct           bool
	attempted, failed int
	// metrics are the end-to-end metrics of an untraced run, or the
	// per-layer metrics of a traced one.
	metrics map[string]metric
	// counts are the first pass's deterministic counters, setupCounts the
	// kept set-up's.
	counts, setupCounts map[string]float64
	record              map[string]any
	tr                  *tracer
	// layers are the traced run's per-layer times, per pass; layerCounts the
	// counters printed beside them.
	layers      layerTimes
	layerCounts map[string]float64
}

// setups is how many times an untraced run sets up; setup_s is the median.
const setups = 5

// measure sets the workload up, then runs timed passes until the time is
// spent. A traced run sets up once and alternates untraced and traced
// passes, so it measures its own tracing overhead.
func measure(cfg config, seed int64, budget time.Duration, traced bool) (*outcome, error) {
	b := &bench{cfg: cfg, seed: seed}
	if traced {
		b.tr = newTracer()
	}
	n := setups
	if traced {
		n = 1
	}
	var w workload
	var setupTimes []float64
	var setupCounts map[string]float64
	for i := 0; i < n; i++ {
		w = nil
		runtime.GC()
		if cfg.repair {
			w = &repairWorkload{}
		} else {
			w = &compileWorkload{}
		}
		b.counts = map[string]float64{}
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		setupCounts = b.counts
	}
	runtime.GC()

	tr := b.tr
	var setupEnd time.Duration
	if tr != nil {
		setupEnd = time.Since(tr.epoch)
	}
	var plain, tracedPasses []*pass
	deadline := time.Now().Add(budget)
	minPasses := 1
	if traced {
		minPasses = 2
	}
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		b.tr = nil
		if traced && i%2 == 1 {
			b.tr = tr
		}
		p := &pass{counts: map[string]float64{}}
		b.counts = p.counts
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		w.run(b, p)
		p.dur = time.Since(t0) - p.offClock
		runtime.ReadMemStats(&m1)
		p.alloc = m1.TotalAlloc - m0.TotalAlloc
		p.gcs = m1.NumGC - m0.NumGC
		p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		if b.tr != nil {
			tracedPasses = append(tracedPasses, p)
		} else {
			plain = append(plain, p)
		}
	}
	b.tr = tr

	all := append(append([]*pass(nil), plain...), tracedPasses...)
	out := &outcome{counts: all[0].counts, setupCounts: setupCounts, tr: tr}
	var failures []string
	for i, p := range all {
		out.attempted += p.ops
		out.failed += p.failed
		failures = append(failures, p.failures...)
		if diff := diffCounts(all[0].counts, p.counts); diff != "" {
			failures = append(failures, fmt.Sprintf("pass %d: deterministic counter changed: %s", i, diff))
		}
	}
	out.correct = len(failures) == 0
	out.record = map[string]any{
		"workload": cfg.name, "seed": seed, "traced": traced, "jobs": cfg.jobs,
		"machine": machine(),
		"setup_s": setupTimes, "passes": len(all), "ops_per_pass": all[0].ops,
		"failures": firstN(failures, 20),
	}
	if traced {
		out.layers, out.layerCounts, out.metrics = perLayer(tr, setupEnd, setupCounts, all[0].counts, plain, tracedPasses)
	} else {
		out.metrics = endToEnd(out, setupTimes, plain)
	}
	return out, nil
}

// endToEnd computes the end-to-end metrics of an untraced run and adds their
// sample counts and the derived paper figures to the record.
func endToEnd(out *outcome, setupTimes []float64, passes []*pass) map[string]metric {
	var durs, offClock, allocs []float64
	for _, p := range passes {
		durs = append(durs, p.dur.Seconds())
		offClock = append(offClock, p.offClock.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20))
	}
	lat := opMedians(passes, func(p *pass) map[int]float64 { return p.lat })
	rec := opMedians(passes, func(p *pass) map[int]float64 { return p.recover })
	c := out.counts
	attempted := float64(max(out.attempted, 1))
	m := map[string]metric{
		"setup_s":        {median(setupTimes), "s"},
		"pass_s":         {median(durs), "s"},
		"op_p50_ms":      {hdQuantile(lat, 0.50), "ms"},
		"op_p95_ms":      {hdQuantile(lat, 0.95), "ms"},
		"alloc_mb":       {median(allocs), "MB"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"bytes_hops":     {c["q.bytes_hops"], "count"},
		"movement_ratio": {ratio(c["q.bytes_hops"], c["q.ref_bytes_hops"]), "ratio"},
		"sim_cycles":     {c["q.sim_cycles"], "cycles"},
		"cycle_ratio":    {ratio(c["q.sim_cycles"], c["q.ref_sim_cycles"]), "ratio"},
		"energy_nj":      {c["q.energy_nj"], "nJ"},
		"sync_arcs":      {c["q.sync_arcs"], "count"},
		"ok_frac":        {(attempted - float64(out.failed)) / attempted, "ratio"},
	}
	out.record["pass_s"] = durs
	out.record["off_clock_check_s"] = median(offClock)
	out.record["latency_ops"] = len(lat)
	if len(rec) > 0 {
		out.record["recover_p50_ms"] = hdQuantile(rec, 0.50)
		out.record["recover_p95_ms"] = hdQuantile(rec, 0.95)
	} else {
		out.record["movement_reduction"] = 1 - m["movement_ratio"].Value
		out.record["speedup"] = ratio(1, m["cycle_ratio"].Value)
	}
	return m
}

// perLayer folds the traced run into the per-layer metrics. Set-up layers
// (the suite build; on online-repair the partitions and checkpointing runs)
// count once; pass layers count per traced pass.
func perLayer(tr *tracer, setupEnd time.Duration, setupCounts, passCounts map[string]float64, plain, traced []*pass) (layerTimes, map[string]float64, map[string]metric) {
	st := tr.times(0, setupEnd)
	pt := tr.times(setupEnd, time.Since(tr.epoch))
	n := len(traced)
	lt := layerTimes{busy: map[string]time.Duration{}, self: map[string]time.Duration{}, calls: map[string]int{}, alloc: map[string]uint64{}}
	for k := range pt.busy {
		lt.busy[k] = pt.busy[k] / time.Duration(n)
		lt.self[k] = pt.self[k] / time.Duration(n)
		lt.calls[k] = pt.calls[k] / n
		lt.alloc[k] = pt.alloc[k] / uint64(n)
	}
	for k := range st.busy {
		lt.busy[k] += st.busy[k]
		lt.self[k] += st.self[k]
		lt.calls[k] += st.calls[k]
		lt.alloc[k] += st.alloc[k]
	}
	c := map[string]float64{}
	for k, v := range setupCounts {
		c[k] += v
	}
	for k, v := range passCounts {
		c[k] += v
	}

	var plainDur, tracedDur []float64
	var gcs, pause float64
	rec := opMedians(plain, func(p *pass) map[int]float64 { return p.recover })
	for _, p := range plain {
		plainDur = append(plainDur, p.dur.Seconds())
		gcs += float64(p.gcs)
		pause += p.gcPause.Seconds()
	}
	for _, p := range traced {
		tracedDur = append(tracedDur, p.dur.Seconds())
	}
	busy := func(k string) metric { return metric{lt.busy[k].Seconds(), "s"} }
	self := func(k string) metric { return metric{lt.self[k].Seconds(), "s"} }
	count := func(k string) metric { return metric{c[k], "count"} }
	mb := func(k string) metric { return metric{float64(lt.alloc[k]) / (1 << 20), "MB"} }
	np := float64(len(plain))
	m := map[string]metric{
		"workloads.Build.busy_s":                 busy("workloads.Build"),
		"fusion.Coarsen.busy_s":                  busy("fusion.Coarsen"),
		"fusion.Coarsen.merges":                  count("fusion.Coarsen.merges"),
		"core.Partition.busy_s":                  busy("core.Partition"),
		"core.Partition.alloc_mb":                mb("core.Partition"),
		"core.Partition.calls":                   count("core.Partition.calls"),
		"core.Partition.instances":               count("core.Partition.instances"),
		"core.Partition.windows_scored":          count("core.Partition.windows_scored"),
		"core.Partition.window_yield":            {ratio(c["core.Partition.calls"], c["core.Partition.windows_scored"]), "ratio"},
		"core.Partition.tasks":                   count("core.Partition.tasks"),
		"core.Partition.fetches":                 count("core.Partition.fetches"),
		"core.Partition.sync_arcs":               count("core.Partition.sync_arcs"),
		"core.Partition.reuse_hits":              count("core.Partition.reuse_hits"),
		"core.Partition.inspector_nests":         count("core.Partition.inspector_nests"),
		"baseline.Place.busy_s":                  busy("baseline.Place"),
		"baseline.Place.alloc_mb":                mb("baseline.Place"),
		"baseline.Place.tasks":                   count("baseline.Place.tasks"),
		"baseline.Place.sync_arcs":               count("baseline.Place.sync_arcs"),
		"verify.Check.busy_s.optimized":          busy("verify.Check.optimized"),
		"verify.Check.busy_s.default":            busy("verify.Check.default"),
		"verify.Check.busy_s.repair":             busy("verify.Check.repair"),
		"verify.Check.busy_s.recover":            busy("verify.Check.recover"),
		"verify.Check.deps_checked":              count("verify.Check.deps_checked"),
		"verify.Check.tasks":                     count("verify.Check.tasks"),
		"verify.Check.redundant_arcs":            count("verify.Check.redundant_arcs"),
		"verify.Check.violations":                count("verify.Check.violations"),
		"sim.Run.busy_s":                         busy("sim.Run"),
		"sim.Run.checkpoint_busy_s":              busy("sim.Run.checkpoint"),
		"sim.Run.transfers":                      count("sim.Run.transfers"),
		"sim.Run.sync_stall_cycles":              {c["sim.Run.sync_stall_cycles"], "cycles"},
		"core.RepairOnline.busy_s":               busy("core.RepairOnline"),
		"core.RepairOnline.self_s":               self("core.RepairOnline"),
		"core.RepairOnline.checks":               count("verify.Check.calls.repair"),
		"core.RepairOnline.accept_ratio":         {ratio(c["core.RepairOnline.accepted"], c["verify.Check.calls.repair"]), "ratio"},
		"core.RepairOnline.escalations":          count("core.RepairOnline.escalations"),
		"core.RepairOnline.residual_tasks":       count("core.RepairOnline.residual_tasks"),
		"core.RepairOnline.migration_bytes_hops": count("core.RepairOnline.migration_bytes_hops"),
		"core.ReintegrateOnline.busy_s":          busy("core.ReintegrateOnline"),
		"core.ReintegrateOnline.self_s":          self("core.ReintegrateOnline"),
		"core.ReintegrateOnline.candidates":      count("core.ReintegrateOnline.candidates"),
		"core.ReintegrateOnline.migrated":        count("core.ReintegrateOnline.migrated"),
		"core.ReintegrateOnline.accept_ratio":    {ratio(c["core.ReintegrateOnline.accepted"], c["verify.Check.calls.recover"]), "ratio"},
		"core.ReintegrateOnline.p95_ms":          {hdQuantile(rec, 0.95), "ms"},
		"runtime.gc_cycles":                      {gcs / np, "count"},
		"runtime.gc_pause_s":                     {pause / np, "s"},
		"trace.overhead_s":                       {median(tracedDur) - median(plainDur), "s"},
	}
	return lt, c, m
}

// diffCounts names the first counter that differs between two passes.
func diffCounts(a, b map[string]float64) string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func firstN(xs []string, n int) []string {
	if len(xs) > n {
		return append(xs[:n:n], fmt.Sprintf("... %d more", len(xs)-n))
	}
	return xs
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or the
// runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if kb, err := procStatusKB("VmHWM"); err == nil {
		return kb / 1024
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func procStatusKB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, errors.New(field + " not found")
}

// machine identifies the host the record was measured on.
func machine() map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     gitCommit(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit resolves HEAD from the .git directory of the working directory
// (the checkout root), or reports "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
