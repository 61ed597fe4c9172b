// Benchmark artifacts: a small, committed JSON summary of the performance
// trajectory (BENCH_<n>.json at the repo root) that CI regresses against.
// An artifact is a flat list of metric records. Each record names the gate
// kind CompareArtifacts judges it by, so the comparison is one rule applied
// to every record; the experiments' absolute gates (budgets, floors, zero
// drops) are their verdicts, checked live when the experiment runs.
package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"odin/internal/persist"
)

// Metric is one recorded number. Name is "<experiment>/<metric>"; Gate is a
// key of gateKinds.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Gate  string  `json:"gate"`
}

// Artifact is the schema of BENCH_<n>.json.
type Artifact struct {
	Schema  int      `json:"schema"`
	Metrics []Metric `json:"metrics"`
}

// ArtifactSchema is the current artifact schema version.
const ArtifactSchema = 2

// NewArtifact returns an artifact at the current schema holding metrics.
func NewArtifact(metrics []Metric) *Artifact {
	return &Artifact{Schema: ArtifactSchema, Metrics: metrics}
}

// gateKind is how CompareArtifacts judges a record: it regresses when the
// current value moved in direction dir (+1: up is worse, -1: down is worse,
// 0: recorded only) by more than tolPct percent of the recorded value and
// by more than slack in the record's unit.
type gateKind struct {
	dir, tolPct, slack float64
}

// Gate kinds. A latency percentile may drift 15% beyond a 2ms slack (sub-
// slack jitter on fast machines never trips the gate); allocations 15%
// beyond 64 objects; a single-probe toggle must keep compiling one function
// (splice invariant); a cache-hit rate may not shrink by more than a point.
const (
	gateNone        = "none"
	gateDriftMS     = "drift-ms"
	gateDriftAllocs = "drift-allocs"
	gateSpliceFuncs = "splice-funcs"
	gateHitPct      = "hit-pct"
)

var gateKinds = map[string]gateKind{
	gateNone:        {},
	gateDriftMS:     {dir: +1, tolPct: 15, slack: 2},
	gateDriftAllocs: {dir: +1, tolPct: 15, slack: 64},
	gateSpliceFuncs: {dir: +1, tolPct: 0, slack: 0.01},
	gateHitPct:      {dir: -1, tolPct: 0, slack: 1},
}

func (g gateKind) regressed(want, got float64) bool {
	switch {
	case g.dir > 0:
		return got > want*(1+g.tolPct/100) && got-want > g.slack
	case g.dir < 0:
		return got < want*(1-g.tolPct/100) && want-got > g.slack
	}
	return false
}

func rec(experiment, name, unit, gate string, v float64) Metric {
	return Metric{Name: experiment + "/" + name, Unit: unit, Value: v, Gate: gate}
}

// ToggleMetrics summarizes probe-toggle: worst-case (max) percentiles,
// allocations and functions per toggle across workload scales, and mean
// hit rates.
func ToggleMetrics(rows []ToggleResult) []Metric {
	var p50, p99, base, frag, fn, allocs, funcs float64
	for _, r := range rows {
		p50, p99, base = max(p50, r.P50MS), max(p99, r.P99MS), max(base, r.BaseP99MS)
		frag += r.FragCacheHitPct / float64(len(rows))
		fn += r.FuncCacheHitPct / float64(len(rows))
		allocs = max(allocs, r.AllocsPerToggle)
		funcs = max(funcs, r.FuncsCompiledPerToggle)
	}
	const e = "probe-toggle"
	return []Metric{
		rec(e, "p50_ms", "ms", gateDriftMS, p50),
		rec(e, "p99_ms", "ms", gateDriftMS, p99),
		rec(e, "baseline_p99_ms", "ms", gateNone, base),
		rec(e, "frag_cache_hit_pct", "%", gateNone, frag),
		rec(e, "func_cache_hit_pct", "%", gateHitPct, fn),
		rec(e, "allocs_per_op", "allocs", gateDriftAllocs, allocs),
		rec(e, "funcs_compiled_per_toggle", "funcs", gateSpliceFuncs, funcs),
	}
}

// VerifyOverheadMetrics summarizes verify-overhead: the boundaries arm's
// worst-case percentiles, the worst overhead and the mean verification-cache
// hit rate.
func VerifyOverheadMetrics(rows []VerifyOverheadResult) []Metric {
	var p50, p99, over, hit float64
	for _, r := range rows {
		p50, p99, over = max(p50, r.BoundaryP50MS), max(p99, r.BoundaryP99MS), max(over, r.OverheadPct)
		hit += r.CacheHitPct / float64(len(rows))
	}
	const e = "verify-overhead"
	return []Metric{
		rec(e, "p50_ms", "ms", gateDriftMS, p50),
		rec(e, "p99_ms", "ms", gateDriftMS, p99),
		rec(e, "overhead_pct", "%", gateNone, over),
		rec(e, "func_cache_hit_pct", "%", gateHitPct, hit),
	}
}

// ParallelMetrics summarizes parallel: the per-program full-rebuild compile
// wall-clock distribution and the mean unchanged-rebuild fragment hit rate.
func ParallelMetrics(rows []ParallelRow) []Metric {
	var walls []float64
	var hit float64
	for _, r := range rows {
		walls = append(walls, r.ParallelWallMS)
		hit += r.CacheHitPct / float64(len(rows))
	}
	const e = "parallel"
	return []Metric{
		rec(e, "p50_ms", "ms", gateDriftMS, percentile(walls, 50)),
		rec(e, "p99_ms", "ms", gateDriftMS, percentile(walls, 99)),
		rec(e, "frag_cache_hit_pct", "%", gateNone, hit),
	}
}

// ColdWarmMetrics summarizes cold-warm: the warm arm's worst-case
// percentiles (the restart cost users pay), the cold p50 the speedup was
// computed against, the worst (smallest) speedup and the mean warm-hit rate.
// Restart latencies are machine-dependent, so none of them is drift-gated;
// the speedup is gated by the experiment's verdict.
func ColdWarmMetrics(rows []ColdWarmResult) []Metric {
	var p50, p99, cold, speedup, hit float64
	for _, r := range rows {
		p50, p99, cold = max(p50, r.WarmP50MS), max(p99, r.WarmP99MS), max(cold, r.ColdP50MS)
		if speedup == 0 || r.SpeedupX < speedup {
			speedup = r.SpeedupX
		}
		hit += r.WarmHitPct / float64(len(rows))
	}
	const e = "cold-warm"
	return []Metric{
		rec(e, "p50_ms", "ms", gateNone, p50),
		rec(e, "p99_ms", "ms", gateNone, p99),
		rec(e, "cold_p50_ms", "ms", gateNone, cold),
		rec(e, "speedup_x", "x", gateNone, speedup),
		rec(e, "frag_cache_hit_pct", "%", gateNone, hit),
	}
}

// StormMetrics summarizes the supervisor storm: worst-case ticket latency
// percentiles across programs.
func StormMetrics(rows []StormResult) []Metric {
	var p50, p99 float64
	for _, r := range rows {
		p50, p99 = max(p50, ms(r.P50.Microseconds())), max(p99, ms(r.P99.Microseconds()))
	}
	return []Metric{
		rec("storm", "p50_ms", "ms", gateDriftMS, p50),
		rec("storm", "p99_ms", "ms", gateDriftMS, p99),
	}
}

// ServeStormMetrics summarizes serve-storm: the worst healthy tenant's
// percentiles in the hostile arm (the number a fleet operator lives with),
// the isolation ratio and the healthy drop count.
func ServeStormMetrics(s *ServeStormSummary) []Metric {
	var p50, p99 float64
	for _, r := range s.Hostile {
		p50, p99 = max(p50, durMS(r.P50)), max(p99, durMS(r.P99))
	}
	const e = "serve-storm"
	return []Metric{
		rec(e, "p50_ms", "ms", gateDriftMS, p50),
		rec(e, "p99_ms", "ms", gateDriftMS, p99),
		rec(e, "isolation_x", "x", gateNone, s.IsolationX),
		rec(e, "dropped_healthy", "count", gateNone, float64(s.DroppedHealthy)),
	}
}

// ServeChaosMetrics summarizes serve-chaos: worst-arm commit latencies, the
// failover window and the healthy drop count. The commit tail is dominated
// by the injected stall plus the failover window, so it is not drift-gated.
func ServeChaosMetrics(s *ServeChaosSummary) []Metric {
	var p50, p99 float64
	for _, arm := range s.Arms {
		p50, p99 = max(p50, durMS(arm.P50)), max(p99, durMS(arm.P99))
	}
	const e = "serve-chaos"
	return []Metric{
		rec(e, "p50_ms", "ms", gateNone, p50),
		rec(e, "p99_ms", "ms", gateNone, p99),
		rec(e, "failover_p99_ms", "ms", gateNone, s.FailoverP99MS),
		rec(e, "dropped_healthy", "count", gateNone, float64(s.DroppedHealthy)),
	}
}

// WriteFile writes the artifact as indented JSON. The write is atomic
// (temp + fsync + rename), so a crashed or interrupted bench run can never
// leave a torn BENCH_<n>.json for the CI gate to trip over.
func (a *Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return persist.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// LoadArtifact reads a committed artifact. A missing or malformed baseline
// gets an actionable error: the usual cause is pointing -bench-compare at an
// artifact that was never recorded (or recorded by an older schema).
func LoadArtifact(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("bench: baseline artifact %s does not exist; record one first with -bench-out %s", path, path)
		}
		return nil, fmt.Errorf("bench: reading baseline artifact %s: %w", path, err)
	}
	a := &Artifact{}
	if err := json.Unmarshal(data, a); err != nil {
		return nil, fmt.Errorf("bench: baseline artifact %s is not valid artifact JSON (%v); re-record it with -bench-out", path, err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("bench: baseline artifact %s has schema %d, this binary speaks %d; re-record it with -bench-out", path, a.Schema, ArtifactSchema)
	}
	if len(a.Metrics) == 0 {
		return nil, fmt.Errorf("bench: baseline artifact %s records no metrics; re-record it with -bench-out", path)
	}
	for _, m := range a.Metrics {
		if _, ok := gateKinds[m.Gate]; !ok {
			return nil, fmt.Errorf("bench: baseline artifact %s: %s has unknown gate %q", path, m.Name, m.Gate)
		}
		// The recorded warm-start speedup must clear its floor outright:
		// the baseline has to prove it on a quiet machine.
		if m.Name == "cold-warm/speedup_x" {
			if err := warmSpeedupVerdict(m.Value, 0); err != nil {
				return nil, fmt.Errorf("bench: baseline artifact %s: %s: recorded %v; re-record on a quiet machine or fix the regression", path, m.Name, err)
			}
		}
	}
	return a, nil
}

// CompareArtifacts checks cur against the committed reference ref and
// returns human-readable regression descriptions (empty = pass). Every
// reference record is judged by its gate kind; a record missing from cur is
// a regression (the trajectory must not silently lose coverage), and
// records new in cur pass.
func CompareArtifacts(ref, cur *Artifact) []string {
	got := map[string]float64{}
	for _, m := range cur.Metrics {
		got[m.Name] = m.Value
	}
	var bad []string
	for _, r := range ref.Metrics {
		c, ok := got[r.Name]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: missing from current run", r.Name))
		} else if g := gateKinds[r.Gate]; g.regressed(r.Value, c) {
			bad = append(bad, fmt.Sprintf("%s: %.3f%s vs recorded %.3f%s (gate %s: worse by >%g%% and >%g)",
				r.Name, c, r.Unit, r.Value, r.Unit, r.Gate, g.tolPct, g.slack))
		}
	}
	return bad
}
