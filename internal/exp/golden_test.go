package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dmacp/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the sweep golden files under testdata/")

// checkGolden runs one sweep's Runner experiment at test scale and compares
// its rendered title, table and headline against testdata/<id>.golden. A
// matching file pins the experiment ID, the table bytes and the
// zero-violation headline at once.
func checkGolden(t *testing.T, run func(*Runner) (*Experiment, error)) {
	t.Helper()
	e, err := run(NewRunner(workloads.TestScale()))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%s\n%s\n\n%s\n", e.ID, e.Title, e.PaperClaim, e.Table)
	keys := make([]string, 0, len(e.Headline))
	for k := range e.Headline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s = %v\n", k, e.Headline[k])
	}
	got := b.String()

	path := filepath.Join("testdata", e.ID+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s output differs from %s:\n-- got --\n%s\n-- want --\n%s", e.ID, path, got, want)
	}
}

func TestRunnerVerifyDiffExperiment(t *testing.T)  { checkGolden(t, (*Runner).VerifyDiff) }
func TestRunnerFaultSweepExperiment(t *testing.T)  { checkGolden(t, (*Runner).FaultSweep) }
func TestRunnerOnlineSweepExperiment(t *testing.T) { checkGolden(t, (*Runner).OnlineSweep) }
func TestRunnerChurnSweepExperiment(t *testing.T)  { checkGolden(t, (*Runner).ChurnSweep) }
func TestRunnerFusionSweepExperiment(t *testing.T) { checkGolden(t, (*Runner).FusionSweep) }
