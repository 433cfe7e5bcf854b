package verify

import (
	"testing"

	"dmacp/internal/baseline"
	"dmacp/internal/core"
	"dmacp/internal/workloads"
)

// chains exposes the index's (total, indexed) chain counts to the tests.
func (c *Closure) chains() (total, indexed int) { return c.ix.Chains() }

// TestHappensBeforeOneChainPerNode: on every optimized and baseline schedule
// of the 12 workloads at test scale, the happens-before index Check builds
// has exactly one chain per occupied node, all of them indexed, so no race
// query takes the BFS fallback.
func TestHappensBeforeOneChainPerNode(t *testing.T) {
	opts := core.DefaultOptions()
	maxTasks := Options{}.withDefaults().MaxClosureTasks
	check := func(label string, tasks []*core.Task) {
		t.Helper()
		hb, stuck := buildClosureBounded(tasks, true, maxTasks)
		if hb == nil {
			t.Fatalf("%s: cycle, stuck %v", label, stuck)
		}
		total, indexed := hb.chains()
		if nodes := core.OccupiedNodes(tasks); total != nodes || indexed != total {
			t.Errorf("%s: %d tasks on %d nodes: %d chains, %d indexed; want %d and %d",
				label, len(tasks), nodes, total, indexed, nodes, nodes)
		}
	}
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, workloads.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range app.Nests {
			res, err := core.Partition(app.Prog, nest, app.Store, opts)
			if err != nil {
				t.Fatalf("%s: %v", nest.Name, err)
			}
			check(nest.Name+"/optimized", res.Schedule.Tasks)
			for _, strat := range []baseline.Strategy{baseline.ProfiledLocality, baseline.BlockDistribution, baseline.MCAffine} {
				bres, err := baseline.Place(app.Prog, nest, app.Store, opts, strat)
				if err != nil {
					t.Fatalf("%s/%v: %v", nest.Name, strat, err)
				}
				check(nest.Name+"/"+strat.String(), bres.Schedule.Tasks)
			}
		}
	}
}
