package core

import (
	"math/rand"
	"testing"

	"odin/internal/interp"
	"odin/internal/progen"
	"odin/internal/rt"
	"odin/internal/vm"
)

// TestAllVariantsDifferentialOnSuite: the suite programs behave identically
// across every partition variant (including the ablations) and the
// reference interpreter, on several inputs.
func TestAllVariantsDifferentialOnSuite(t *testing.T) {
	inputs := [][]byte{
		nil,
		{3},
		[]byte("variant differential"),
		{0, 1, 2, 3, 4, 5, 250, 128, 66, 99},
	}
	variants := []Variant{VariantOdin, VariantOne, VariantMax, VariantNoBond, VariantNoClone}
	for _, name := range []string{"woff2", "lcms", "x509", "json", "libpng"} {
		p, ok := progen.ByName(name)
		if !ok {
			t.Fatalf("no profile %s", name)
		}
		m := p.Generate()
		type expected struct {
			ret int64
			out string
		}
		var want []expected
		for _, in := range inputs {
			r, o, err := interp.RunProgram(m, in)
			if err != nil {
				t.Fatalf("%s: interp: %v", name, err)
			}
			want = append(want, expected{r, o})
		}
		for _, v := range variants {
			eng, err := New(m, Options{Variant: v})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			exe, _, err := eng.BuildAll()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			mach := vm.New(exe)
			for i, in := range inputs {
				ret, out, _, err := vm.RunProgram(mach, in)
				if err != nil {
					t.Fatalf("%s/%s input %d: %v", name, v, i, err)
				}
				if ret != want[i].ret || out != want[i].out {
					t.Fatalf("%s/%s input %d: (%d,%q) != (%d,%q)",
						name, v, i, ret, out, want[i].ret, want[i].out)
				}
			}
		}
	}
}

// TestRecompileChurnPreservesSemantics: repeatedly toggling random probes
// and rebuilding must never change program behaviour, and the cache must
// stay consistent across many incremental relinks.
func TestRecompileChurnPreservesSemantics(t *testing.T) {
	m := progen.Demo().Generate()
	wantRet, wantOut, err := interp.RunProgram(m, []byte("churn input"))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(m, Options{ExtraBuiltins: []string{"__test_hit"}})
	if err != nil {
		t.Fatal(err)
	}
	// One probe per function entry block.
	var ids []int
	for _, f := range eng.Pristine.Funcs {
		if f.IsDecl() {
			continue
		}
		ids = append(ids, eng.Manager.Add(&hookProbe{fnName: f.Name, block: f.Blocks[0], id: int64(len(ids))}))
	}
	exe, _, err := eng.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	totalFragsRebuilt := 0
	for round := 0; round < 12; round++ {
		// Toggle a random subset.
		for k := 0; k < rng.Intn(3)+1; k++ {
			id := ids[rng.Intn(len(ids))]
			if eng.Manager.IsActive(id) && rng.Intn(2) == 0 {
				if err := eng.Manager.Remove(id); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := eng.Manager.MarkChanged(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		sched, err := eng.Schedule()
		if err != nil {
			t.Fatal(err)
		}
		if len(sched.Fragments()) == len(eng.Plan.Fragments) && round > 0 {
			t.Fatalf("round %d: full rebuild instead of incremental (%d fragments)", round, len(sched.Fragments()))
		}
		exe, _, err = sched.Rebuild()
		if err != nil {
			t.Fatal(err)
		}
		totalFragsRebuilt += len(sched.Fragments())

		mach := vm.New(exe)
		mach.Env.Builtins["__test_hit"] = func(env *rt.Env, args []int64) (int64, error) { return 0, nil }
		p, n, err := mach.Env.WriteInput([]byte("churn input"))
		if err != nil {
			t.Fatal(err)
		}
		ret, err := mach.Run("fuzz_target", p, n)
		if err != nil {
			t.Fatal(err)
		}
		if ret != wantRet || mach.Env.Out.String() != wantOut {
			t.Fatalf("round %d: behaviour changed: (%d,%q) != (%d,%q)",
				round, ret, mach.Env.Out.String(), wantRet, wantOut)
		}
	}
	if totalFragsRebuilt == 0 {
		t.Fatal("no fragments rebuilt")
	}
}

// TestHistoryAccumulates: the engine counts every rebuild and keeps the
// newest one's statistics for introspection.
func TestHistoryAccumulates(t *testing.T) {
	m := progen.Demo().Generate()
	eng, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.BuildAll(); err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if snap.Rebuilds != 1 || snap.LastRebuild == nil {
		t.Fatalf("rebuilds = %d, last %v; want 1 with stats", snap.Rebuilds, snap.LastRebuild)
	}
	st := *snap.LastRebuild
	if len(st.Fragments) == 0 || st.Total <= 0 {
		t.Fatalf("bad stats: %+v", st)
	}
	nonEmpty := 0
	for _, fc := range st.Fragments {
		// A fragment may legally compile to nothing (its sole member was
		// an internalized dead helper removed by fragment-level global
		// DCE), but most fragments must carry code.
		if fc.Instrs > 0 {
			nonEmpty++
		}
		if fc.MiddleBackEnd() < 0 {
			t.Fatalf("negative compile time")
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every fragment compiled to nothing")
	}
}
