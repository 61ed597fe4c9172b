package bench

import (
	"fmt"
	"io"

	"odin/internal/core"
)

// VerifyOverheadResult is one workload's row of the verify-overhead
// experiment: the probe-toggle loop is run twice on identical engines, once
// with rebuild-path verification off and once at the default boundaries tier
// (strict verification of the instrumented temporary IR and of every
// optimized fragment module, hash-cached per function), and the p50 latency
// delta is the price the default tier charges every rebuild.
type VerifyOverheadResult struct {
	Program string `json:"program"`
	Rounds  int    `json:"rounds"`
	// OffP50MS/OffP99MS are the VerifyOff arm's per-toggle rebuild latencies;
	// BoundaryP50MS/BoundaryP99MS are the VerifyBoundaries arm's.
	OffP50MS      float64 `json:"off_p50_ms"`
	OffP99MS      float64 `json:"off_p99_ms"`
	BoundaryP50MS float64 `json:"boundary_p50_ms"`
	BoundaryP99MS float64 `json:"boundary_p99_ms"`
	// OverheadPct is the boundaries tier's p50 overhead relative to the off
	// arm, clamped to 0 when the absolute delta is under the measurement
	// noise floor (verifyNoiseFloorMS).
	OverheadPct float64 `json:"overhead_pct"`
	// CacheHitPct is the boundary arm's verification-cache hit rate: the
	// share of per-function checks served from the content-hash cache
	// instead of re-running the strict verifier.
	CacheHitPct float64 `json:"cache_hit_pct"`
}

// VerifyOverheadBudgetPct is the CI budget for the boundaries tier: its p50
// rebuild-latency overhead must stay at or under this percentage.
const VerifyOverheadBudgetPct = 5.0

// verifyNoiseFloorMS is the absolute p50 delta below which the two arms are
// considered indistinguishable: sub-quarter-millisecond differences on a
// millisecond-scale rebuild are scheduler jitter, not verification cost.
const verifyNoiseFloorMS = 0.25

// RunVerifyOverhead measures the boundaries-tier verification overhead on the
// probe-toggle workloads.
func RunVerifyOverhead(rounds int) ([]VerifyOverheadResult, error) {
	if rounds < 4 {
		rounds = 4
	}
	var out []VerifyOverheadResult
	for _, wl := range toggleWorkloads {
		r, err := runVerifyOverheadOne(wl.groups, wl.funcs, rounds)
		if err != nil {
			return nil, fmt.Errorf("bench: verify-overhead g%dx%d: %w", wl.groups, wl.funcs, err)
		}
		out = append(out, *r)
	}
	return out, nil
}

func runVerifyOverheadOne(groups, funcsPerGroup, rounds int) (*VerifyOverheadResult, error) {
	src := toggleSrc(groups, funcsPerGroup)
	name := fmt.Sprintf("verify-g%dx%d", groups, funcsPerGroup)
	target := "t0_2"

	// Same pairing discipline as the probe-toggle experiment, so a single
	// GC pause cannot masquerade as verification overhead.
	off, err := toggleEngine(name, src, core.Options{Verify: core.VerifyOff})
	if err != nil {
		return nil, err
	}
	offLats, _, _, err := measureToggle(off, target, rounds)
	if err != nil {
		return nil, err
	}
	bnd, err := toggleEngine(name, src, core.Options{Verify: core.VerifyBoundaries})
	if err != nil {
		return nil, err
	}
	bndLats, _, _, err := measureToggle(bnd, target, rounds)
	if err != nil {
		return nil, err
	}

	res := &VerifyOverheadResult{
		Program:       name,
		Rounds:        rounds,
		OffP50MS:      ms(percentile(offLats, 50).Microseconds()),
		OffP99MS:      ms(percentile(offLats, 99).Microseconds()),
		BoundaryP50MS: ms(percentile(bndLats, 50).Microseconds()),
		BoundaryP99MS: ms(percentile(bndLats, 99).Microseconds()),
	}
	if d := res.BoundaryP50MS - res.OffP50MS; d >= verifyNoiseFloorMS && res.OffP50MS > 0 {
		res.OverheadPct = 100 * d / res.OffP50MS
	}
	if hits, misses := bnd.VerifyCacheStats(); hits+misses > 0 {
		res.CacheHitPct = 100 * float64(hits) / float64(hits+misses)
	}
	return res, nil
}

// PrintVerifyOverhead renders the verify-overhead table and returns its
// verdict: every workload's overhead at or under VerifyOverheadBudgetPct.
func PrintVerifyOverhead(w io.Writer, rows []VerifyOverheadResult) error {
	fmt.Fprintf(w, "Verify overhead — boundaries-tier strict verification cost per probe-toggle rebuild (budget <=%.0f%% of p50)\n",
		VerifyOverheadBudgetPct)
	fmt.Fprintf(w, "%-15s %7s %9s %9s %9s %9s %9s %7s\n",
		"program", "rounds", "off-p50", "off-p99", "bnd-p50", "bnd-p99", "overhead", "hit%")
	over := 0
	for _, r := range rows {
		if r.OverheadPct > VerifyOverheadBudgetPct {
			over++
		}
		fmt.Fprintf(w, "%-15s %7d %9.3f %9.3f %9.3f %9.3f %8.1f%% %6.1f%%\n",
			r.Program, r.Rounds, r.OffP50MS, r.OffP99MS, r.BoundaryP50MS, r.BoundaryP99MS,
			r.OverheadPct, r.CacheHitPct)
	}
	var err error
	if over > 0 {
		err = fmt.Errorf("%d workloads exceed the %.0f%% verification budget", over, VerifyOverheadBudgetPct)
	}
	return verdict(w, err, fmt.Sprintf("every workload within the %.0f%% verification budget", VerifyOverheadBudgetPct))
}
