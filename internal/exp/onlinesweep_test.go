package exp

import (
	"testing"

	"dmacp/internal/workloads"
)

// TestOnlineSweepGate is the online-arrival acceptance harness: across all
// 12 workloads, a mid-run fault (1..3 dead links, then +1 dead tile) strikes
// at half the pristine makespan; every event must be repaired into a
// verifier-clean residual schedule (or reported unrepairable with
// diagnostics — none are expected at these levels), the batched assignment
// must never move more data than the greedy ID-order baseline and must win
// strictly on at least 3 workloads, and checkpointed re-repair must beat
// re-partition-from-scratch on mean total (migration + residual) movement.
func TestOnlineSweepGate(t *testing.T) {
	res, err := OnlineSweep(SweepConfig{Scale: workloads.TestScale(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired == 0 {
		t.Fatal("online sweep repaired no events")
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	for _, u := range res.Unrepairable {
		t.Errorf("unrepairable at acceptance fault levels: %s", u)
	}
	if res.Repaired != res.Events {
		t.Errorf("repaired %d of %d events", res.Repaired, res.Events)
	}

	strictWins := 0
	for _, row := range res.PerApp {
		if row.Events == 0 {
			t.Errorf("%s contributed no comparable events", row.App)
			continue
		}
		if row.BatchedRatio > row.GreedyRatio {
			t.Errorf("%s: batched residual ratio %.6f exceeds greedy %.6f",
				row.App, row.BatchedRatio, row.GreedyRatio)
		}
		if row.BatchedRatio < row.GreedyRatio {
			strictWins++
		}
	}
	if strictWins < 3 {
		t.Errorf("batched assignment strictly beat greedy on %d workloads, want >= 3", strictWins)
	}

	var onlineMean, scratchMean float64
	for _, row := range res.PerApp {
		onlineMean += row.OnlineTotal
		scratchMean += row.ScratchTotal
	}
	if onlineMean >= scratchMean {
		t.Errorf("checkpointed re-repair mean total %.6f does not beat re-partition-from-scratch %.6f",
			onlineMean/float64(len(res.PerApp)), scratchMean/float64(len(res.PerApp)))
	}
}
