package bench

import (
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestRunToggleShape: the probe-toggle experiment must splice every toggle
// (exactly one function compiled per rebuild), never fall back, and end with
// an image byte-identical to its cold reference on every workload scale.
func TestRunToggleShape(t *testing.T) {
	rows, err := RunToggle(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(toggleWorkloads) {
		t.Fatalf("rows = %d, want %d", len(rows), len(toggleWorkloads))
	}
	for _, r := range rows {
		if !r.RefMatch {
			t.Errorf("%s: spliced image diverged from cold reference", r.Program)
		}
		if r.FuncsCompiledPerToggle != 1 {
			t.Errorf("%s: %.2f funcs compiled per toggle, want exactly 1", r.Program, r.FuncsCompiledPerToggle)
		}
		if r.SpliceFallbacks != 0 {
			t.Errorf("%s: %d splice fallbacks", r.Program, r.SpliceFallbacks)
		}
		wantHit := 100 * float64(r.GroupFuncs-1) / float64(r.GroupFuncs)
		if diff := r.FuncCacheHitPct - wantHit; diff > 0.1 || diff < -0.1 {
			t.Errorf("%s: func cache hit %.1f%%, want %.1f%%", r.Program, r.FuncCacheHitPct, wantHit)
		}
		if r.AllocsPerToggle <= 0 || r.P99MS < 0 {
			t.Errorf("%s: degenerate measurements: %+v", r.Program, r)
		}
	}
}

// TestArtifactRoundTrip: ToggleMetrics + WriteFile + LoadArtifact preserve
// the recorded metrics.
func TestArtifactRoundTrip(t *testing.T) {
	rows := []ToggleResult{
		{Program: "a", P50MS: 1, P99MS: 4, BaseP99MS: 9, FuncCacheHitPct: 80, AllocsPerToggle: 200, FuncsCompiledPerToggle: 1},
		{Program: "b", P50MS: 2, P99MS: 3, BaseP99MS: 7, FuncCacheHitPct: 90, AllocsPerToggle: 300, FuncsCompiledPerToggle: 1},
	}
	a := NewArtifact(ToggleMetrics(rows))
	want := map[string]float64{
		"probe-toggle/p99_ms": 4, "probe-toggle/p50_ms": 2, "probe-toggle/allocs_per_op": 300,
		"probe-toggle/baseline_p99_ms": 9, "probe-toggle/func_cache_hit_pct": 85,
		"probe-toggle/funcs_compiled_per_toggle": 1,
	}
	for _, m := range a.Metrics {
		if v, ok := want[m.Name]; ok && m.Value != v {
			t.Errorf("%s = %v, want %v", m.Name, m.Value, v)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH_t.json")
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ArtifactSchema || !reflect.DeepEqual(got.Metrics, a.Metrics) {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

// TestCompareArtifacts exercises the regression gate's decision table.
func TestCompareArtifacts(t *testing.T) {
	ref := NewArtifact(ToggleMetrics([]ToggleResult{{
		P50MS: 5, P99MS: 10, FuncCacheHitPct: 85, AllocsPerToggle: 500, FuncsCompiledPerToggle: 1,
	}}))
	mk := func(name string, v float64) *Artifact {
		cur := NewArtifact(slices.Clone(ref.Metrics))
		for i := range cur.Metrics {
			if cur.Metrics[i].Name == name {
				cur.Metrics[i].Value = v
			}
		}
		return cur
	}
	check := func(name string, ref, cur *Artifact, wantSubstr string) {
		t.Helper()
		bad := CompareArtifacts(ref, cur)
		if wantSubstr == "" {
			if len(bad) != 0 {
				t.Fatalf("%s: unexpected regressions: %v", name, bad)
			}
			return
		}
		if len(bad) == 0 {
			t.Fatalf("%s: regression not detected", name)
		}
		found := false
		for _, b := range bad {
			if strings.Contains(b, wantSubstr) {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: regressions %v lack %q", name, bad, wantSubstr)
		}
	}

	check("identical", ref, mk("", 0), "")
	// Within tolerance: +10% on p99.
	check("small drift", ref, mk("probe-toggle/p99_ms", 11), "")
	// Over tolerance but under the 2ms slack: 0.5ms -> 1.2ms.
	small := NewArtifact([]Metric{rec("probe-toggle", "p99_ms", "ms", gateDriftMS, 0.5)})
	smallCur := NewArtifact([]Metric{rec("probe-toggle", "p99_ms", "ms", gateDriftMS, 1.2)})
	check("sub-slack jitter", small, smallCur, "")
	// Real p99 regression: +50% and +5ms.
	check("p99 regression", ref, mk("probe-toggle/p99_ms", 15), "probe-toggle/p99_ms")
	// Allocation blow-up.
	check("alloc regression", ref, mk("probe-toggle/allocs_per_op", 1200), "probe-toggle/allocs_per_op")
	// Structural: splice stopped working.
	check("splice broke", ref, mk("probe-toggle/funcs_compiled_per_toggle", 4), "probe-toggle/funcs_compiled_per_toggle")
	// Hit-rate collapse.
	check("hit rate", ref, mk("probe-toggle/func_cache_hit_pct", 60), "probe-toggle/func_cache_hit_pct")
	// Missing experiment.
	check("missing", ref, NewArtifact(nil), "missing")
}
