package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/rt"
	"odin/internal/vm"
)

// StormResult is one program's row of the supervisor storm experiment:
// many goroutines hammer one Supervisor with probe toggles, and the row
// records how hard the admission queue coalesced them, the ticket latency
// distribution, and whether the final image stayed correct.
type StormResult struct {
	Program     string
	Goroutines  int
	Requests    int
	Generations uint64
	// CoalescingRatio is requests per rebuild generation (> 1 means the
	// queue batched concurrent toggles into shared rebuilds).
	CoalescingRatio float64
	P50, P99, Max   time.Duration
	FinalActive     int
	Wall            time.Duration
	// RefMatch reports that the final image replays the corpus with the
	// same signature as a serially-built reference carrying the same final
	// probe set. Must be true.
	RefMatch bool
}

// stormProbe instruments its target's entry block with a __storm_hit call.
// It locates the target by name in the temporary IR, so the same value
// works in the supervised engine and the serial reference engine.
type stormProbe struct {
	fnName string
	id     int64
}

func (p *stormProbe) PatchTarget() string { return p.fnName }

func (p *stormProbe) Instrument(s *core.Sched) error {
	f := s.MapFunc(p.fnName)
	if f == nil {
		return fmt.Errorf("bench: %s not in recompilation", p.fnName)
	}
	nb := f.Blocks[0]
	hook := s.LookupFunction("__storm_hit", &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(nb, len(nb.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.id))
	return nil
}

// stormSig replays the corpus against the engine's current image with the
// __storm_hit builtin bound to a no-op, so instrumented and uninstrumented
// images are comparable.
func stormSig(e *core.Engine, corpus [][]byte) ([]execSig, error) {
	mach := vm.New(e.Executable())
	mach.Env.Builtins["__storm_hit"] = func(env *rt.Env, args []int64) (int64, error) { return 0, nil }
	return signature(mach, corpus)
}

// stormTargets picks the instrumentable functions of the module: defined,
// with at least one block, round-robin assignable to goroutines.
func stormTargets(m *ir.Module) []string {
	var out []string
	for _, f := range m.Funcs {
		if !f.IsDecl() && len(f.Blocks) > 0 {
			out = append(out, f.Name)
		}
	}
	return out
}

// RunStorm is the experiment behind `odin-bench -experiment storm`: for
// each program it starts a supervised engine and fires goroutines*perG
// concurrent probe toggles through the admission queue, then drains and
// verifies the final image against a serial reference build.
func RunStorm(progs []*ProgramData, goroutines, perG int, seed uint64) ([]StormResult, error) {
	if goroutines < 1 {
		goroutines = 8
	}
	if perG < 1 {
		perG = 50
	}
	var out []StormResult
	for pi, pd := range progs {
		r, err := runStormOne(pd, goroutines, perG, seed+uint64(pi))
		if err != nil {
			return nil, fmt.Errorf("bench: %s storm: %w", pd.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runStormOne(pd *ProgramData, goroutines, perG int, seed uint64) (StormResult, error) {
	res := StormResult{Program: pd.Name, Goroutines: goroutines}
	e, err := core.New(pd.Module, core.Options{
		Telemetry:     Telemetry,
		ExtraBuiltins: []string{"__storm_hit"},
	})
	if err != nil {
		return res, err
	}
	s := core.Supervise(e, core.SupervisorOptions{})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	// Initial build through the supervisor.
	gate, err := s.SyncCtx(ctx)
	if err != nil {
		return res, err
	}
	if r, err := gate.Wait(ctx); err != nil {
		return res, err
	} else if r.Err != nil {
		return res, r.Err
	}

	targets := stormTargets(pd.Module)
	if len(targets) == 0 {
		return res, fmt.Errorf("no instrumentable functions")
	}

	var (
		mu   sync.Mutex
		lats []time.Duration
	)
	var waiters sync.WaitGroup
	track := func(start time.Time, tk *core.Ticket) {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			if _, err := tk.Wait(ctx); err != nil {
				return
			}
			d := time.Since(start)
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
		}()
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine owns one target (round-robin) so the storm
			// contends on the supervisor, not on probe semantics.
			fn := targets[(int(seed)+g)%len(targets)]
			id, tk, err := s.AddProbeCtx(ctx, &stormProbe{fnName: fn, id: int64(g)})
			if err != nil {
				errs[g] = err
				return
			}
			track(time.Now(), tk)
			for i := 0; i < perG-1; i++ {
				var tk *core.Ticket
				var err error
				switch i % 3 {
				case 0:
					tk, err = s.RemoveProbeCtx(ctx, id)
				case 1:
					tk, err = s.EnableProbeCtx(ctx, id)
				default:
					tk, err = s.MarkChangedCtx(ctx, id)
				}
				if err != nil {
					errs[g] = err
					return
				}
				track(time.Now(), tk)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	if err := s.Drain(ctx); err != nil {
		return res, err
	}
	waiters.Wait()
	res.Wall = time.Since(t0)

	st := s.Stats()
	res.Requests = int(st.Requests)
	res.Generations = st.Generations
	res.CoalescingRatio = st.CoalescingRatio
	res.FinalActive = e.Manager.NumActive()
	res.P50, res.P99, res.Max = percentile(lats, 50), percentile(lats, 99), percentile(lats, 100)

	// Verify: the final image must replay the corpus exactly like a serial
	// reference engine built with the same final probe set.
	got, err := stormSig(e, pd.Corpus)
	if err != nil {
		return res, err
	}
	ref, err := core.New(pd.Module, core.Options{ExtraBuiltins: []string{"__storm_hit"}})
	if err != nil {
		return res, err
	}
	for _, id := range e.Manager.Active() {
		p, _ := e.Manager.Get(id)
		ref.Manager.Add(p)
	}
	if _, _, err := ref.BuildAll(); err != nil {
		return res, err
	}
	want, err := stormSig(ref, pd.Corpus)
	if err != nil {
		return res, err
	}
	res.RefMatch = sameSigs(got, want)
	return res, nil
}

// PrintStorm renders the supervisor storm table.
func PrintStorm(w io.Writer, rows []StormResult) {
	fmt.Fprintf(w, "Supervisor storm — concurrent probe toggles, coalesced rebuild generations\n")
	fmt.Fprintf(w, "%-14s %5s %8s %6s %7s %9s %9s %9s %7s %5s\n",
		"program", "gor", "requests", "gens", "coalesce", "p50", "p99", "max", "active", "ref")
	bad := 0
	for _, r := range rows {
		ok := "ok"
		if !r.RefMatch {
			ok = "FAIL"
			bad++
		}
		fmt.Fprintf(w, "%-14s %5d %8d %6d %7.1fx %9s %9s %9s %7d %5s\n",
			r.Program, r.Goroutines, r.Requests, r.Generations, r.CoalescingRatio,
			r.P50.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond),
			r.Max.Round(10*time.Microsecond), r.FinalActive, ok)
	}
	if bad == 0 {
		fmt.Fprintf(w, "PASS: every final image matches its serially-built reference\n")
	} else {
		fmt.Fprintf(w, "FAIL: %d programs diverged from the serial reference\n", bad)
	}
}
