package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"odin/internal/core"
	"odin/internal/faultinject"
	"odin/internal/rt"
	"odin/internal/vm"
)

// FaultRow aggregates one (kind, rate) cell of the robustness sweep across
// every program and round: how rebuilds under injected faults resolved, and
// whether any of the two hard invariants — no untyped failure, no behavior
// divergence of the served executable — were violated.
type FaultRow struct {
	Kind     string
	Rate     float64
	Rounds   int
	Injected int
	// Outcome classification, one per round: OK (clean), Degraded (ladder
	// compiled below the configured level or quarantined a pass), Deferred
	// (last-good objects served, probe change postponed), Failed (typed
	// rebuild failure, state untouched), Timeout (rebuild deadline).
	OK, Degraded, Deferred, Failed, Timeout int
	// Untyped counts failures that were not a *core.RebuildError,
	// core.FragError, or *core.TimeoutError. Must be zero.
	Untyped int
	// ExecMismatch counts rounds after which the served executable replayed
	// the corpus with different results than the clean reference build.
	// Must be zero: degraded and deferred images stay semantically correct.
	ExecMismatch int
}

// Violations reports invariant violations in the row.
func (r FaultRow) Violations() int { return r.Untyped + r.ExecMismatch }

// execSig is the semantic signature of one corpus input: return value,
// program output, and whether it trapped. Cycle counts are deliberately
// excluded — degraded (-O1/-O0) rebuilds run more cycles but must preserve
// exactly this triple.
type execSig struct {
	ret     int64
	out     string
	trapped bool
}

func signature(mach *vm.Machine, corpus [][]byte) ([]execSig, error) {
	sigs := make([]execSig, 0, len(corpus))
	for _, in := range corpus {
		ret, out, _, err := vm.RunProgram(mach, in)
		s := execSig{ret: ret, out: out}
		if err != nil {
			var trap *rt.TrapError
			if !errors.As(err, &trap) {
				return nil, err
			}
			s.trapped = true
		}
		sigs = append(sigs, s)
	}
	return sigs, nil
}

func sameSigs(a, b []execSig) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// faultSweepKinds and faultSweepRates define the sweep grid. Stall faults
// run under a rebuild deadline so high rates trip timeouts rather than
// merely slowing the experiment down.
var (
	faultSweepKinds = []faultinject.Kind{faultinject.KindError, faultinject.KindPanic, faultinject.KindStall}
	faultSweepRates = []float64{0.01, 0.05, 0.2, 1.0}
)

const (
	faultStall   = 5 * time.Millisecond
	faultTimeout = 100 * time.Millisecond
)

// RunFaults is the robustness experiment behind `odin-bench -experiment
// faults`: for every fault kind and injection rate it arms a deterministic
// injector at every pipeline site ("*") and drives full cache-invalidated
// rebuild rounds on each program, classifying how every round resolved. The
// engine process must never crash, every failure must be typed, and the
// executable the engine serves after every round — degraded, deferred, or
// rolled back — must replay the corpus identically to a clean build.
func RunFaults(progs []*ProgramData, seed uint64, rounds int) ([]FaultRow, error) {
	if rounds < 1 {
		rounds = 3
	}
	var out []FaultRow
	for _, kind := range faultSweepKinds {
		for _, rate := range faultSweepRates {
			row := FaultRow{Kind: string(kind), Rate: rate}
			for pi, pd := range progs {
				if err := runFaultsOne(pd, kind, rate, seed+uint64(pi), rounds, &row); err != nil {
					return nil, fmt.Errorf("bench: %s faults %s@%.2f: %w", pd.Name, kind, rate, err)
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func runFaultsOne(pd *ProgramData, kind faultinject.Kind, rate float64, seed uint64, rounds int, row *FaultRow) error {
	// The injector is swapped in only after the clean reference build.
	var hook func(site string) error
	opts := core.Options{Telemetry: Telemetry, FaultHook: func(site string) error {
		if hook == nil {
			return nil
		}
		return hook(site)
	}}
	if kind == faultinject.KindStall {
		opts.RebuildTimeout = faultTimeout
	}
	e, err := core.New(pd.Module, opts)
	if err != nil {
		return err
	}
	exe, _, err := e.BuildAll()
	if err != nil {
		return fmt.Errorf("clean build: %w", err)
	}
	ref, err := signature(vm.New(exe), pd.Corpus)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}

	inj := faultinject.New(seed).SetStall(faultStall).
		Arm(faultinject.Rule{Site: "*", Kind: kind, Rate: rate})
	hook = inj.At
	before := inj.TotalInjected()

	for r := 0; r < rounds; r++ {
		e.InvalidateCache()
		_, st, err := e.BuildAll()
		row.Rounds++
		switch {
		case err == nil && st.Deferred > 0:
			row.Deferred++
		case err == nil && (st.Degraded > 0 || st.Quarantined > 0):
			row.Degraded++
		case err == nil:
			row.OK++
		default:
			var te *core.TimeoutError
			var re *core.RebuildError
			var fe core.FragError
			switch {
			case errors.As(err, &te):
				row.Timeout++
			case errors.As(err, &re), errors.As(err, &fe):
				row.Failed++
				if !faultinject.IsInjected(err) {
					return fmt.Errorf("round %d: non-injected failure: %w", r, err)
				}
			default:
				row.Untyped++
			}
		}

		// Whatever happened, the engine must still serve a semantically
		// correct image: the pre-round one on failure/timeout, the staged
		// (possibly degraded or partially deferred) one on success.
		got, err := signature(vm.New(e.Executable()), pd.Corpus)
		if err != nil || !sameSigs(ref, got) {
			row.ExecMismatch++
		}
	}
	row.Injected += inj.TotalInjected() - before
	return nil
}

// PersistFaultRow aggregates one (kind, rate) cell of the persistence
// restart sweep: fresh engines warm-starting from a shared artifact cache
// and state snapshot with faults armed at every persist:* site. The
// persistence contract is stricter than the pipeline's degradation ladder —
// a persistent-tier failure may cost warm hits but must never surface as a
// build error, and every served image must stay byte-identical to the cold
// reference (not merely semantically equivalent).
type PersistFaultRow struct {
	Kind     string
	Rate     float64
	Restarts int
	Injected int
	// WarmHits counts fragments served from disk across all restarts —
	// whatever the injector let through.
	WarmHits int
	// BuildErrors counts restarts where New or BuildAll returned an error.
	// Must be zero: persistence failures degrade to cold compile.
	BuildErrors int
	// ImageMismatch counts restarts whose linked image fingerprint diverged
	// from the cold reference. Must be zero: a warm start never changes
	// output, no matter what the disk tier did.
	ImageMismatch int
}

// Violations reports invariant violations in the row.
func (r PersistFaultRow) Violations() int { return r.BuildErrors + r.ImageMismatch }

// RunPersistFaults is the faults experiment's persistence arm: for every
// fault kind and rate it seeds a cache directory + snapshot with a clean
// engine, then performs rounds engine restarts against it with a
// deterministic injector armed at "persist:*", asserting the
// verify-or-degrade contract end to end.
func RunPersistFaults(progs []*ProgramData, seed uint64, rounds int) ([]PersistFaultRow, error) {
	if rounds < 1 {
		rounds = 3
	}
	var out []PersistFaultRow
	for _, kind := range faultSweepKinds {
		for _, rate := range faultSweepRates {
			row := PersistFaultRow{Kind: string(kind), Rate: rate}
			for pi, pd := range progs {
				if err := runPersistFaultsOne(pd, kind, rate, seed+uint64(pi), rounds, &row); err != nil {
					return nil, fmt.Errorf("bench: %s persist faults %s@%.2f: %w", pd.Name, kind, rate, err)
				}
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func runPersistFaultsOne(pd *ProgramData, kind faultinject.Kind, rate float64, seed uint64, rounds int, row *PersistFaultRow) error {
	dir, err := os.MkdirTemp("", "odin-persistfault-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	popts := core.Options{
		Telemetry:    Telemetry,
		CacheDir:     filepath.Join(dir, "cache"),
		SnapshotPath: filepath.Join(dir, "state.snap"),
	}

	// Seed pass: a clean engine populates the cache and snapshot and records
	// the reference image every faulted restart must reproduce.
	e, err := core.New(pd.Module, popts)
	if err != nil {
		return err
	}
	exe, _, err := e.BuildAll()
	if err != nil {
		return fmt.Errorf("seed build: %w", err)
	}
	ref := exe.Fingerprint()
	if err := e.Close(); err != nil {
		return fmt.Errorf("seed close: %w", err)
	}

	inj := faultinject.New(seed).SetStall(faultStall).
		Arm(faultinject.Rule{Site: "persist:*", Kind: kind, Rate: rate})
	for r := 0; r < rounds; r++ {
		row.Restarts++
		o := popts
		o.FaultHook = inj.At
		e, err := core.New(pd.Module, o)
		if err != nil {
			row.BuildErrors++
			continue
		}
		exe, st, err := e.BuildAll()
		if err != nil {
			row.BuildErrors++
			e.Close()
			continue
		}
		row.WarmHits += st.WarmHits
		if exe.Fingerprint() != ref {
			row.ImageMismatch++
		}
		// Close may surface an injected snapshot-save fault; that is a typed
		// error on an explicit flush, not a crash — swallowed here, the next
		// restart proves the on-disk state stayed loadable-or-evictable.
		e.Close()
	}
	row.Injected += inj.TotalInjected()
	return nil
}

// PrintPersistFaults renders the persistence restart sweep table and returns
// its verdict: no build error and no image divergence under persist faults.
func PrintPersistFaults(w io.Writer, rows []PersistFaultRow) error {
	fmt.Fprintf(w, "Persistence fault sweep — engine restarts onto a seeded cache with faults armed at persist:* sites\n")
	fmt.Fprintf(w, "%-6s %5s %9s %9s %9s %10s %9s\n",
		"kind", "rate", "restarts", "injected", "warmhits", "builderr", "mismatch")
	violations := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %5.2f %9d %9d %9d %10d %9d\n",
			r.Kind, r.Rate, r.Restarts, r.Injected, r.WarmHits, r.BuildErrors, r.ImageMismatch)
		violations += r.Violations()
	}
	var err error
	if violations > 0 {
		err = fmt.Errorf("%d invariant violations (build errors or image divergence under persist faults)", violations)
	}
	return verdict(w, err, "every restart served a byte-identical image; persistence failures never surfaced")
}

// PrintFaults renders the robustness sweep table.
func PrintFaults(w io.Writer, rows []FaultRow) {
	fmt.Fprintf(w, "Fault-injection sweep — full-rebuild rounds under seeded faults at every pipeline site\n")
	fmt.Fprintf(w, "%-6s %5s %7s %9s %5s %9s %9s %7s %8s %8s %9s\n",
		"kind", "rate", "rounds", "injected", "ok", "degraded", "deferred", "failed", "timeout", "untyped", "mismatch")
	violations := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %5.2f %7d %9d %5d %9d %9d %7d %8d %8d %9d\n",
			r.Kind, r.Rate, r.Rounds, r.Injected, r.OK, r.Degraded, r.Deferred,
			r.Failed, r.Timeout, r.Untyped, r.ExecMismatch)
		violations += r.Violations()
	}
	if violations == 0 {
		fmt.Fprintf(w, "PASS: zero process crashes, every failure typed, served executables always correct\n")
	} else {
		fmt.Fprintf(w, "FAIL: %d invariant violations (untyped failures or executable mismatches)\n", violations)
	}
}
