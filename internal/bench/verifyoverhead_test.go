package bench

import (
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestRunVerifyOverheadShape: both arms must produce real measurements on
// every workload scale, and the boundary arm must serve a meaningful share
// of its per-function checks from the content-hash verification cache.
func TestRunVerifyOverheadShape(t *testing.T) {
	rows, err := RunVerifyOverhead(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(toggleWorkloads) {
		t.Fatalf("rows = %d, want %d", len(rows), len(toggleWorkloads))
	}
	for _, r := range rows {
		if r.OffP50MS <= 0 || r.BoundaryP50MS <= 0 {
			t.Errorf("%s: degenerate latencies: %+v", r.Program, r)
		}
		if r.OverheadPct < 0 {
			t.Errorf("%s: negative overhead %.2f%%", r.Program, r.OverheadPct)
		}
		if r.CacheHitPct <= 0 {
			t.Errorf("%s: verification cache never hit (%.1f%%)", r.Program, r.CacheHitPct)
		}
	}
}

// TestVerifyOverheadArtifact pins the metric fold and the absolute budget
// verdict: overhead is judged against VerifyOverheadBudgetPct when the
// experiment runs, never against a reference's value, so the recorded
// overhead_pct is gate none.
func TestVerifyOverheadArtifact(t *testing.T) {
	rows := []VerifyOverheadResult{
		{Program: "a", BoundaryP50MS: 1, BoundaryP99MS: 2, OverheadPct: 1.5, CacheHitPct: 80},
		{Program: "b", BoundaryP50MS: 3, BoundaryP99MS: 4, OverheadPct: 3.0, CacheHitPct: 90},
	}
	ms := VerifyOverheadMetrics(rows)
	want := []Metric{
		{"verify-overhead/p50_ms", "ms", 3, gateDriftMS},
		{"verify-overhead/p99_ms", "ms", 4, gateDriftMS},
		{"verify-overhead/overhead_pct", "%", 3.0, gateNone},
		{"verify-overhead/func_cache_hit_pct", "%", 85, gateHitPct},
	}
	if !reflect.DeepEqual(ms, want) {
		t.Fatalf("aggregation wrong: %+v", ms)
	}

	ref := NewArtifact(ms)
	within := []VerifyOverheadResult{{Program: "a", BoundaryP50MS: 3, BoundaryP99MS: 4, OverheadPct: 4.9, CacheHitPct: 85}}
	if err := PrintVerifyOverhead(io.Discard, within); err != nil {
		t.Fatalf("overhead within budget failed: %v", err)
	}
	if bad := CompareArtifacts(ref, NewArtifact(VerifyOverheadMetrics(within))); len(bad) != 0 {
		t.Fatalf("overhead within budget flagged: %v", bad)
	}
	over := []VerifyOverheadResult{{Program: "a", BoundaryP50MS: 3, BoundaryP99MS: 4, OverheadPct: 7.5}}
	if err := PrintVerifyOverhead(io.Discard, over); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget overhead not failed: %v", err)
	}
}
