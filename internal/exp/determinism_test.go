package exp

import (
	"reflect"
	"testing"

	"dmacp/internal/workloads"
)

// The parallel experiment engine's contract is byte-identity: every table and
// headline must be the same at -j 1 and -j 8 (indexed result slots, serial
// seeding before fan-out, in-order merges). These tests run representative
// experiments at both settings and diff the rendered output.

// runAt builds a fresh runner at the given worker count and runs the named
// experiments, returning rendered tables and headline maps keyed by id.
func runAt(t *testing.T, jobs int, ids []string) (map[string]string, map[string]map[string]float64) {
	t.Helper()
	r := NewRunner(workloads.Scale{Iters: 16, Elems: 1 << 11})
	r.Jobs = jobs
	r.Opts.Jobs = jobs
	entries := map[string]func() (*Experiment, error){
		"table1": r.Table1, "fig13": r.Fig13, "fig18": r.Fig18,
		"fig20": r.Fig20, "fig22": r.Fig22, "fig23": r.Fig23,
	}
	tables := map[string]string{}
	heads := map[string]map[string]float64{}
	for _, id := range ids {
		e, err := entries[id]()
		if err != nil {
			t.Fatalf("jobs=%d %s: %v", jobs, id, err)
		}
		if e.Table != nil {
			tables[id] = e.Table.String()
		}
		heads[id] = e.Headline
	}
	return tables, heads
}

func TestExperimentsDeterministicAcrossJobs(t *testing.T) {
	// fig18/fig20/fig22/fig23 are the experiments with their own fan-out and
	// flattened-grid merges; table1/fig13 cover the warmed-cache preamble.
	ids := []string{"table1", "fig13", "fig18", "fig20", "fig22", "fig23"}
	t1, h1 := runAt(t, 1, ids)
	t8, h8 := runAt(t, 8, ids)
	for _, id := range ids {
		if t1[id] != t8[id] {
			t.Errorf("%s: table differs between -j1 and -j8:\n-- j1 --\n%s\n-- j8 --\n%s", id, t1[id], t8[id])
		}
		if !reflect.DeepEqual(h1[id], h8[id]) {
			t.Errorf("%s: headline differs between -j1 and -j8: %v vs %v", id, h1[id], h8[id])
		}
	}
}

// TestSweepsDeterministicAcrossJobs runs every differential sweep at -j1 and
// -j8 on a small app subset and requires identical results: the sweep driver
// seeds series before the fan-out and merges their slots in series order.
func TestSweepsDeterministicAcrossJobs(t *testing.T) {
	small := workloads.Scale{Iters: 16, Elems: 1 << 11}
	two := []string{"FFT", "MiniMD"}
	cases := []struct {
		name string
		run  func(jobs int) (any, error)
	}{
		{"verifydiff", func(j int) (any, error) {
			return VerifyDifferential(VerifyDiffConfig{Programs: 4, Seed: 11, Iters: 12, Elems: 1 << 10, Jobs: j})
		}},
		{"faultsweep", func(j int) (any, error) {
			return FaultSweep(SweepConfig{Apps: []string{"FFT", "LU", "Radix"}, Scale: small, Seed: 1, Jobs: j})
		}},
		{"onlinesweep", func(j int) (any, error) {
			return OnlineSweep(SweepConfig{Apps: two, Scale: workloads.TestScale(), Seed: 7, Jobs: j})
		}},
		{"churnsweep", func(j int) (any, error) {
			return ChurnSweep(SweepConfig{Apps: two, Scale: workloads.TestScale(), Seed: 7, Jobs: j})
		}},
		{"fusionsweep", func(j int) (any, error) {
			return FusionSweep(SweepConfig{Scale: workloads.TestScale(), Jobs: j})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			serial, err := c.run(1)
			if err != nil {
				t.Fatal(err)
			}
			wide, err := c.run(8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, wide) {
				t.Errorf("differs between -j1 and -j8:\n%+v\n%+v", serial, wide)
			}
		})
	}
}
