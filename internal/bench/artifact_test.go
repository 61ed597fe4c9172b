package bench

import (
	"io"
	"path/filepath"
	"testing"
)

// TestGateKindEdges: each relative gate kind fires only past both its
// tolerance and its slack, in its own direction.
func TestGateKindEdges(t *testing.T) {
	cases := []struct {
		gate      string
		want, got float64
		regressed bool
	}{
		{gateDriftMS, 10, 12, false}, // +20% but only +2ms
		{gateDriftMS, 10, 12.01, true},
		{gateDriftMS, 20, 23, false}, // +3ms but only +15%
		{gateDriftMS, 20, 23.01, true},
		{gateDriftMS, 10, 1, false}, // faster is never a regression
		{gateDriftAllocs, 500, 575, false},
		{gateDriftAllocs, 500, 576, true},
		{gateDriftAllocs, 100, 164, false}, // +64% but only +64 objects
		{gateSpliceFuncs, 1, 1.005, false},
		{gateSpliceFuncs, 1, 1.02, true},
		{gateHitPct, 85, 84, false},
		{gateHitPct, 85, 83.9, true},
		{gateHitPct, 85, 100, false},
		{gateNone, 1, 1e9, false},
	}
	for _, c := range cases {
		if got := gateKinds[c.gate].regressed(c.want, c.got); got != c.regressed {
			t.Errorf("%s: %v -> %v regressed=%v, want %v", c.gate, c.want, c.got, got, c.regressed)
		}
	}
}

// TestAbsoluteGateEdges: every absolute gate passes just inside its bound
// and fails just outside it.
func TestAbsoluteGateEdges(t *testing.T) {
	storm := func(iso float64, dropped int) error {
		return PrintServeStorm(io.Discard, &ServeStormSummary{Programs: []string{"a", "b"}, IsolationX: iso, DroppedHealthy: dropped})
	}
	chaos := func(failover float64, dropped int) error {
		return PrintServeChaos(io.Discard, &ServeChaosSummary{FailoverP99MS: failover, DroppedHealthy: dropped})
	}
	coldWarm := func(speedup float64, refMatch bool) error {
		return PrintColdWarm(io.Discard, []ColdWarmResult{{SpeedupX: speedup, RefMatch: refMatch}})
	}
	recorded := func(speedup float64) error {
		path := filepath.Join(t.TempDir(), "BENCH.json")
		if err := NewArtifact([]Metric{rec("cold-warm", "speedup_x", "x", gateNone, speedup)}).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		_, err := LoadArtifact(path)
		return err
	}
	cases := []struct {
		name string
		err  error
		fail bool
	}{
		{"verify overhead at budget", PrintVerifyOverhead(io.Discard, []VerifyOverheadResult{{OverheadPct: 5.0}}), false},
		{"verify overhead past budget", PrintVerifyOverhead(io.Discard, []VerifyOverheadResult{{OverheadPct: 5.01}}), true},
		{"live warm speedup within tolerance", coldWarm(4.35, true), false},
		{"live warm speedup past tolerance", coldWarm(4.34, true), true},
		{"recorded warm speedup at floor", recorded(5.0), false},
		{"recorded warm speedup below floor", recorded(4.99), true},
		{"cold-warm reference mismatch", coldWarm(6, false), true},
		{"isolation at bound", storm(2.0, 0), false},
		{"isolation past bound", storm(2.01, 0), true},
		{"serve-storm healthy drop", storm(1, 1), true},
		{"failover at budget", chaos(10_000, 0), false},
		{"failover past budget", chaos(10_001, 0), true},
		{"serve-chaos healthy drop", chaos(1, 1), true},
		{"toggle reference match", PrintToggle(io.Discard, []ToggleResult{{RefMatch: true}}), false},
		{"toggle reference mismatch", PrintToggle(io.Discard, []ToggleResult{{RefMatch: true}, {RefMatch: false}}), true},
		{"persist faults clean", PrintPersistFaults(io.Discard, []PersistFaultRow{{Restarts: 3}}), false},
		{"persist fault violation", PrintPersistFaults(io.Discard, []PersistFaultRow{{ImageMismatch: 1}}), true},
	}
	for _, c := range cases {
		if (c.err != nil) != c.fail {
			t.Errorf("%s: verdict %v, want fail=%v", c.name, c.err, c.fail)
		}
	}
}

// TestCommittedArtifactsSelfClean: every committed BENCH_*.json loads at the
// current schema and compares clean against itself.
func TestCommittedArtifactsSelfClean(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed artifacts found (%v)", err)
	}
	for _, p := range paths {
		a, err := LoadArtifact(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if bad := CompareArtifacts(a, a); len(bad) > 0 {
			t.Errorf("%s: compares dirty against itself: %v", p, bad)
		}
	}
}
