package ir_test

import (
	"testing"

	"dmacp/internal/fusion"
	"dmacp/internal/ir"
	"dmacp/internal/workloads"
)

// TestIndexOfMatchesAnalyzeAffine checks the stored subscript form against a
// fresh analysis: for every ref of every workload nest and of its fused
// nest, SubscriptOf agrees with AnalyzeAffine on analyzability, and for
// affine refs IndexOf equals AnalyzeAffine(ref.Index).Eval(env) over sampled
// iterations.
func TestIndexOfMatchesAnalyzeAffine(t *testing.T) {
	fused := 0
	for _, name := range workloads.Names() {
		app, err := workloads.Build(name, workloads.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		for _, nest := range app.Nests {
			nests := []*ir.Nest{nest}
			if fr := fusion.Coarsen(app.Prog, nest, fusion.Limits{}); fr.Merged > 0 {
				nests = append(nests, fr.Nest)
				fused++
			}
			for _, n := range nests {
				checkNestSubscripts(t, app.Prog, app.Store, n)
			}
		}
	}
	if fused == 0 {
		t.Fatal("no workload nest fused; the fused-ref arm is untested")
	}
}

func checkNestSubscripts(t *testing.T, prog *ir.Program, store *ir.Store, nest *ir.Nest) {
	t.Helper()
	iters := nest.Iterations()
	step := max(1, iters/7)
	for _, stmt := range nest.Body {
		for _, ref := range stmt.AllRefs() {
			want, wantOK := ir.Affine{}, true // a scalar is element 0
			if ref.Index != nil {
				want, wantOK = ir.AnalyzeAffine(ref.Index)
			}
			got, gotOK := ir.SubscriptOf(ref)
			if gotOK != wantOK {
				t.Fatalf("%s %s: SubscriptOf ok=%v, AnalyzeAffine ok=%v", nest.Name, ref, gotOK, wantOK)
			}
			for k := 0; k < iters; k += step {
				env := nest.IterationEnv(k)
				idx, err := prog.IndexOf(ref, env, store)
				if !wantOK {
					continue // indirect: resolved through the store
				}
				if err != nil {
					t.Fatalf("%s %s iter %d: %v", nest.Name, ref, k, err)
				}
				if w := want.Eval(env); idx != w || got.Eval(env) != w {
					t.Fatalf("%s %s iter %d: IndexOf=%d stored=%d, AnalyzeAffine=%d",
						nest.Name, ref, k, idx, got.Eval(env), w)
				}
			}
		}
	}
}

// TestIndexOfAffineAllocFree: resolving an affine subscript evaluates the
// form NewRef stored, with no allocation per call.
func TestIndexOfAffineAllocFree(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("A", 1024, 8)
	stmt := ir.MustParseStatement("A(2*i+3) = A(i-1)+S")
	env := map[string]int{"i": 5}
	for _, ref := range stmt.AllRefs() {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := prog.IndexOf(ref, env, nil); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("IndexOf(%s) allocates %.1f times per call", ref, allocs)
		}
	}
}

// TestHandBuiltRefResolves: a ref built as a literal, without NewRef, still
// resolves like its parsed twin — affine, scalar and indirect.
func TestHandBuiltRefResolves(t *testing.T) {
	prog := ir.NewProgram()
	prog.AddArray("A", 64, 8)
	prog.AddArray("X", 64, 8)
	store := ir.NewStore(prog)
	store.FillRandom(prog, 3)
	env := map[string]int{"i": 9}
	for _, src := range []string{"A(2*i+1)", "A", "A(X(i)+1)"} {
		parsed := ir.MustParseStatement(src + " = 0").LHS
		hand := &ir.Ref{Array: parsed.Array, Index: parsed.Index}
		pa, pok := ir.SubscriptOf(parsed)
		ha, hok := ir.SubscriptOf(hand)
		if pok != hok || (pok && pa.Eval(env) != ha.Eval(env)) {
			t.Errorf("%s: SubscriptOf hand-built (%v, %v) != parsed (%v, %v)", src, ha, hok, pa, pok)
		}
		want, err := prog.AddrOf(parsed, env, store)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := prog.AddrOf(hand, env, store); err != nil || got != want {
			t.Errorf("%s: hand-built AddrOf = %#x, %v; parsed %#x", src, got, err, want)
		}
	}
}
