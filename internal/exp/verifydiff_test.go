package exp

import (
	"strings"
	"testing"

	"dmacp/internal/verify"
	"dmacp/internal/workloads"
)

// TestVerifyDifferentialAllVariantsClean is the acceptance gate for the
// shipped emitters: across random programs (affine, indirect, accumulator
// shapes) every partitioner variant (window sizes x cluster modes) and every
// baseline strategy must emit schedules that preserve all RAW/WAR/WAW
// dependences.
func TestVerifyDifferentialAllVariantsClean(t *testing.T) {
	cfg := VerifyDiffConfig{Programs: 6, Seed: 11, Iters: 24, Elems: 1 << 10}
	if testing.Short() {
		cfg.Programs = 3
	}
	res, err := VerifyDifferential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs == 0 || res.DepsChecked == 0 {
		t.Fatalf("harness verified nothing: %+v", res)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("%d schedule(s) violate dependences; first:\n%s",
			len(res.Violations), strings.Join(res.Violations[:1], "\n"))
	}
	if n := res.KindCounts[verify.KindStaleReuse]; n != 0 {
		t.Fatalf("%d stale-reuse violation(s): an emitter planned an L1 hit on an invalidated copy", n)
	}
	t.Logf("verified %d runs, %d dependence pairs, %d warnings, kinds %v",
		res.Runs, res.DepsChecked, res.Warnings, res.KindCounts)
}

// TestWorkloadSchedulesVerifyClean runs the verifier over every shipped
// application's nests — partitioner and default placement — at test scale.
func TestWorkloadSchedulesVerifyClean(t *testing.T) {
	r := NewRunner(workloads.TestScale())
	for _, name := range workloads.Names() {
		ar, err := r.Base(name)
		if err != nil {
			t.Fatal(err)
		}
		app := ar.App
		for ni, nr := range ar.Nests {
			prog := app.Prog
			// The optimized schedule is emitted over the (possibly fused)
			// nest; the default placement always uses the original.
			in := verify.Input{
				Prog: prog, Nest: nr.Opt.ScheduleNest(), Store: app.Store,
				Schedule: nr.Opt.Schedule, Mesh: r.Opts.Mesh, Layout: r.Opts.Layout,
				Translations: nr.Opt.Translations, Labels: nr.Opt.LineLabels,
			}
			rep, err := verify.Check(in, verify.Options{})
			if err != nil {
				t.Fatalf("%s nest %d optimized: %v", name, ni, err)
			}
			if !rep.Clean() {
				t.Errorf("%s nest %d optimized schedule not clean:\n%s\n%v",
					name, ni, rep.Summary(), rep.Lines())
			}
			in.Nest = nr.Nest
			in.Schedule = nr.Def.Schedule
			in.Translations = nr.Def.Translations
			in.Labels = nil
			rep, err = verify.Check(in, verify.Options{})
			if err != nil {
				t.Fatalf("%s nest %d default: %v", name, ni, err)
			}
			if !rep.Clean() {
				t.Errorf("%s nest %d default schedule not clean:\n%s\n%v",
					name, ni, rep.Summary(), rep.Lines())
			}
		}
	}
}
