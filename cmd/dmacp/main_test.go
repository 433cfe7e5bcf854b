package main

import (
	"strings"
	"testing"

	"dmacp/pipeline"
)

// TestWriteReportWindowLine checks the report names a pinned window as
// fixed and an adaptive one with the searched range.
func TestWriteReportWindowLine(t *testing.T) {
	k := pipeline.Kernel{
		Name:       "kernel",
		Statements: "A(i) = B(i)+C(i); X(i) = Y(i)+C(i)",
		Iterations: 16,
		Sweeps:     1,
		ArrayLen:   1024,
		Seed:       1,
	}
	for _, c := range []struct {
		window int
		want   string
	}{
		{3, "statement window:   3 (fixed)\n"},
		{0, " (adaptive search over 1..8)\n"},
	} {
		cfg := pipeline.DefaultConfig()
		cfg.FixedWindow = c.window
		rep, err := pipeline.Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		writeReport(&b, k.Statements, cfg, rep)
		if !strings.Contains(b.String(), c.want) {
			t.Errorf("-window %d: report lacks %q:\n%s", c.window, c.want, b.String())
		}
	}
}
