package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"dmacp/internal/workloads"
)

// small runs a workload at the reduced test scale with one timed pass (two
// in the traced run).
func small(t *testing.T, name string, jobs int, traced bool) *outcome {
	t.Helper()
	cfg, err := configByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.scale = workloads.TestScale()
	cfg.jobs = jobs
	out, err := measure(cfg, 7, time.Nanosecond, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct || out.failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d of %d: %v", name, out.correct, out.failed, out.attempted, out.record["failures"])
	}
	return out
}

// Every deterministic count repeats exactly across two runs, and at Jobs=1
// against Jobs=2.
func TestCountsRepeat(t *testing.T) {
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			a := small(t, c.name, 2, false)
			b := small(t, c.name, 2, false)
			serial := small(t, c.name, 1, false)
			for _, o := range []*outcome{b, serial} {
				if !reflect.DeepEqual(a.counts, o.counts) || !reflect.DeepEqual(a.setupCounts, o.setupCounts) {
					t.Errorf("counts differ:\n%v\n%v\nset-up:\n%v\n%v", a.counts, o.counts, a.setupCounts, o.setupCounts)
				}
			}
			if len(a.counts) == 0 || a.counts["q.bytes_hops"] == 0 {
				t.Errorf("no counts recorded: %v", a.counts)
			}
		})
	}
}

// Every metric name a run prints is declared in BENCHMARK.json with the same
// unit, and every declared name is printed: end-to-end names untraced,
// per-layer names traced.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, c := range configs {
		ours = append(ours, c.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		u := map[string]string{}
		for _, m := range ms {
			u[m.Name] = m.Unit
		}
		return u
	}
	for _, traced := range []bool{false, true} {
		want := units(spec.EndToEnd)
		if traced {
			want = units(spec.PerLayer)
		}
		for _, c := range configs {
			out := small(t, c.name, 2, traced)
			got := map[string]string{}
			for k, m := range out.metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: printed %v, BENCHMARK.json declares %v", c.name, traced, keys(got), keys(want))
			}
			if !traced && out.metrics["bytes_hops"].Value <= 0 {
				t.Errorf("%s: bytes_hops is not positive", c.name)
			}
		}
	}
}

// The traced run reports the window sweep per nest: 8 windows scored on the
// adaptive workload, 1 on the fixed-window ones; and its Chrome trace parses.
func TestTracedRun(t *testing.T) {
	for _, c := range configs {
		out := small(t, c.name, 2, true)
		want := 8.0
		if c.window > 0 {
			want = 1
		}
		m := out.metrics
		if got := m["core.Partition.windows_scored"].Value / m["core.Partition.calls"].Value; got != want {
			t.Errorf("%s: %v windows scored per nest, want %v", c.name, got, want)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := out.tr.writeChrome(path, out.record); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []chromeEvent
		}
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		if len(tf.TraceEvents) == 0 || tf.TraceEvents[0].Ph != "X" {
			t.Errorf("%s: trace has %d events", c.name, len(tf.TraceEvents))
		}
	}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent.
func TestCovered(t *testing.T) {
	parent := span{start: 10, end: 100}
	kids := []span{{start: 50, end: 70}, {start: 5, end: 20}, {start: 60, end: 80}, {start: 95, end: 120}}
	if got := covered(parent, kids); got != 10+30+5 {
		t.Errorf("covered = %v, want 45", got)
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The Harrell–Davis weights sum to one and centre on the quantile's rank,
// and the estimate lies between the order statistics around that rank.
func TestHDQuantile(t *testing.T) {
	const tol = 1e-9
	if got := hdQuantile([]float64{4, 4, 4, 4, 4}, 0.95); math.Abs(got-4) > tol {
		t.Errorf("constant sample: got %v, want 4", got)
	}
	var xs []float64
	for i := 216; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := hdQuantile(xs, 0.5); math.Abs(got-108.5) > tol {
		t.Errorf("median of 1..216: got %v, want 108.5", got)
	}
	if got := hdQuantile(xs, 0.95); got < 203 || got > 208 {
		t.Errorf("p95 of 1..216: got %v, want near 0.95*217", got)
	}
	if got := hdQuantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
}
