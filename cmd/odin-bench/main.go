// Command odin-bench regenerates the paper's evaluation tables and figures
// (§5) on the generated 13-program suite, plus the engine's own experiments.
//
// Usage:
//
//	odin-bench [-experiment all|NAME[,NAME...]]
//	           [-campaign N] [-programs a,b,c] [-workers N]
//	           [-fault-rounds N] [-fault-seed N] [-json] [-metrics-addr HOST:PORT]
//	           [-storm-goroutines N] [-storm-requests N] [-toggle-rounds N]
//	           [-coldwarm-rounds N] [-verify off|boundaries|all]
//	           [-serve-tenants N] [-serve-requests N] [-serve-programs a,b]
//	           [-bench-out FILE] [-bench-compare FILE]
//
// -experiment takes a comma-separated list of experiment names (see the
// experiments table below); "all" stands for the paper's figures (fig3,
// fig8–fig12, ablation, codegen, headline). The selected experiments run in
// table order, and the program suite and the shared Fig 8 / Fig 10 results
// are prepared once, on first use, so any mix is accepted:
//
//	odin-bench -experiment fig11,parallel -programs woff2
//	odin-bench -experiment probe-toggle,verify-overhead -bench-out BENCH_7.json
//
// An experiment with an absolute gate (a reference match, a budget, a floor,
// zero dropped work) prints its PASS/FAIL verdict, and a FAIL exits 1.
//
// -verify forces the engine verification tier (ODIN_VERIFY) for every engine
// the harness creates; the verify-overhead experiment ignores it and pins its
// two arms explicitly.
//
// With -json the selected experiments' raw results — including every
// rebuild's full RebuildStats with the degradation/quarantine/deferral
// accounting — are emitted as one JSON document on stdout (progress chatter
// moves to stderr). With -metrics-addr a telemetry registry is attached to
// every engine the harness creates and served live for the duration of the
// run.
//
// -bench-out writes a benchmark artifact (BENCH_<n>.json, schema 2: a list
// of metric records) holding the records of every experiment that ran.
// -bench-compare loads a committed artifact and fails the run (exit 1) when
// a record regresses past its gate kind or is missing. See EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strings"
	"sync"

	"odin/internal/bench"
	"odin/internal/core"
	"odin/internal/progen"
	"odin/internal/telemetry"
)

// config is the harness configuration, filled from the flags.
type config struct {
	experiment, programs         string
	campaign, workers            int
	faultRounds                  int
	faultSeed                    uint64
	jsonOut                      bool
	metricsAddr                  string
	stormG, stormN               int
	toggleRounds, coldWarmRounds int
	cacheDir, snapshot           string
	serveTenants, serveRequests  int
	servePrograms                []string
	benchOut, benchCompare       string
}

func main() {
	var c config
	flag.StringVar(&c.experiment, "experiment", "all", "comma-separated experiments to run: all, "+strings.Join(experimentNames(), ", "))
	flag.IntVar(&c.campaign, "campaign", 400, "fuzzing iterations used to generate each replay corpus")
	flag.StringVar(&c.programs, "programs", "", "comma-separated subset of programs (default: all 13)")
	flag.IntVar(&c.workers, "workers", 0, "worker count for the parallel experiment (0 = GOMAXPROCS)")
	flag.IntVar(&c.faultRounds, "fault-rounds", 3, "rebuild rounds per program and injection-rate cell in the faults experiment")
	flag.Uint64Var(&c.faultSeed, "fault-seed", 1, "base seed for the deterministic fault injector")
	flag.BoolVar(&c.jsonOut, "json", false, "emit raw experiment results (full RebuildStats included) as JSON on stdout")
	flag.StringVar(&c.metricsAddr, "metrics-addr", "", "serve live telemetry for the run on this host:port (port 0 = pick a free port)")
	flag.IntVar(&c.stormG, "storm-goroutines", 8, "concurrent submitter goroutines in the storm experiment")
	flag.IntVar(&c.stormN, "storm-requests", 64, "probe requests per goroutine in the storm experiment")
	flag.IntVar(&c.toggleRounds, "toggle-rounds", 40, "probe toggles per workload in the probe-toggle and verify-overhead experiments")
	flag.IntVar(&c.coldWarmRounds, "coldwarm-rounds", 5, "engine restarts per arm and workload in the cold-warm experiment")
	flag.StringVar(&c.cacheDir, "cache-dir", "", "with -experiment cold-warm: pin each workload's persistent cache to a subdirectory of this path and leave it on disk for inspection (default: fresh temp dirs, removed)")
	flag.StringVar(&c.snapshot, "snapshot", "", "with -experiment cold-warm and -cache-dir: base path for the per-workload engine state snapshots (default: state.snap inside each workload's cache)")
	flag.IntVar(&c.serveTenants, "serve-tenants", 3, "healthy tenants in the serve-storm experiment (the hostile arm adds one more)")
	flag.IntVar(&c.serveRequests, "serve-requests", 40, "probe add/remove cycles per healthy tenant in the serve-storm experiment")
	servePrograms := flag.String("serve-programs", "json,woff2", "the two suite programs the serve-storm daemon shards host")
	verify := flag.String("verify", "", "engine IR-verification tier for the run: off, boundaries, all (default: ODIN_VERIFY or boundaries)")
	flag.StringVar(&c.benchOut, "bench-out", "", "write a benchmark artifact (BENCH_<n>.json schema) to this file")
	flag.StringVar(&c.benchCompare, "bench-compare", "", "compare this run's artifact against a committed one; exit 1 on regression")
	flag.Parse()

	if *verify != "" {
		if _, ok := core.ParseVerifyMode(*verify); !ok {
			fmt.Fprintf(os.Stderr, "odin-bench: -verify %q: want off, boundaries, or all\n", *verify)
			os.Exit(2)
		}
		// The harness builds engines in many places; route the tier through
		// the engine's environment resolution instead of threading an option
		// into every constructor.
		os.Setenv("ODIN_VERIFY", *verify)
	}
	for _, p := range strings.Split(*servePrograms, ",") {
		if p = strings.TrimSpace(p); p != "" {
			c.servePrograms = append(c.servePrograms, p)
		}
	}
	if err := run(c); err != nil {
		fmt.Fprintf(os.Stderr, "odin-bench: %v\n", err)
		os.Exit(1)
	}
}

// experiment is one row of the experiments table. run prints the
// experiment's table to r.w and returns its -json entries, its artifact
// metric records, and its error: a failed run or a FAIL verdict.
type experiment struct {
	name  string
	inAll bool
	run   func(r *runner) (map[string]any, []bench.Metric, error)
}

// experiments is the harness, in run order. -json files each result under
// the experiment's name with dashes turned into underscores.
var experiments = []experiment{
	row("fig3", true, func(*runner) (*bench.Fig3Result, error) { return bench.RunFig3() }, shown(bench.PrintFig3), nil),
	row("fig8", true, (*runner).fig8, shown(bench.PrintFig8), nil),
	row("fig9", true, derive((*runner).fig8, bench.Summarize), shown(bench.PrintFig9), nil),
	row("fig10", true, (*runner).fig10, shown(func(w io.Writer, rows []bench.VariantResult) {
		bench.PrintFig10(w, rows, bench.SummarizeFig10(rows))
	}), nil),
	row("fig11", true, derive((*runner).fig10, bench.Fig11), shown(bench.PrintFig11), nil),
	row("parallel", false, func(r *runner) ([]bench.ParallelRow, error) {
		progs, err := r.suite()
		if err != nil {
			return nil, err
		}
		return bench.RunParallel(progs, r.workers)
	}, shown(bench.PrintParallel), bench.ParallelMetrics),
	row("fig12", true, derive((*runner).fig10, bench.Fig12), shown(bench.PrintFig12), nil),
	row("ablation", true, onSuite(bench.RunAblation), shown(bench.PrintAblation), nil),
	row("codegen", true, onSuite(bench.RunCodegenAblation), shown(bench.PrintCodegenAblation), nil),
	row("headline", true, func(r *runner) (*bench.HeadlineResult, error) {
		f8, err := r.fig8()
		if err != nil {
			return nil, err
		}
		progs, _ := r.suite() // prepared by fig8
		return bench.Headline(f8, progs)
	}, shown(bench.PrintHeadline), nil),
	{"faults", false, func(r *runner) (map[string]any, []bench.Metric, error) {
		progs, err := r.suite()
		if err != nil {
			return nil, nil, err
		}
		rows, err := bench.RunFaults(progs, r.faultSeed, r.faultRounds)
		if err != nil {
			return nil, nil, err
		}
		bench.PrintFaults(r.w, rows)
		fmt.Fprintln(r.w)
		prows, err := bench.RunPersistFaults(progs, r.faultSeed, r.faultRounds)
		if err != nil {
			return map[string]any{"faults": rows}, nil, err
		}
		return map[string]any{"faults": rows, "persist_faults": prows}, nil, bench.PrintPersistFaults(r.w, prows)
	}},
	row("storm", false, func(r *runner) ([]bench.StormResult, error) {
		progs, err := r.suite()
		if err != nil {
			return nil, err
		}
		return bench.RunStorm(progs, r.stormG, r.stormN, r.faultSeed)
	}, shown(bench.PrintStorm), bench.StormMetrics),
	row("probe-toggle", false, func(r *runner) ([]bench.ToggleResult, error) { return bench.RunToggle(r.toggleRounds) },
		bench.PrintToggle, bench.ToggleMetrics),
	row("verify-overhead", false, func(r *runner) ([]bench.VerifyOverheadResult, error) { return bench.RunVerifyOverhead(r.toggleRounds) },
		bench.PrintVerifyOverhead, bench.VerifyOverheadMetrics),
	row("cold-warm", false, func(r *runner) ([]bench.ColdWarmResult, error) {
		return bench.RunColdWarm(r.coldWarmRounds, r.cacheDir, r.snapshot)
	}, bench.PrintColdWarm, bench.ColdWarmMetrics),
	row("serve-storm", false, func(r *runner) (*bench.ServeStormSummary, error) {
		return bench.RunServeStorm(r.servePrograms, r.serveTenants, r.serveRequests)
	}, bench.PrintServeStorm, bench.ServeStormMetrics),
	row("serve-chaos", false, func(r *runner) (*bench.ServeChaosSummary, error) {
		prog := "json"
		if len(r.servePrograms) > 0 {
			prog = r.servePrograms[0]
		}
		return bench.RunServeChaos(prog, r.serveTenants, r.serveRequests)
	}, bench.PrintServeChaos, bench.ServeChaosMetrics),
}

// row assembles an experiment from its parts: compute produces the result,
// print renders it and returns its verdict, and metrics (nil for none)
// summarizes it for the benchmark artifact.
func row[T any](name string, inAll bool, compute func(*runner) (T, error), print func(io.Writer, T) error, metrics func(T) []bench.Metric) experiment {
	return experiment{name, inAll, func(r *runner) (map[string]any, []bench.Metric, error) {
		v, err := compute(r)
		if err != nil {
			return nil, nil, err
		}
		var ms []bench.Metric
		if metrics != nil {
			ms = metrics(v)
		}
		return map[string]any{strings.ReplaceAll(name, "-", "_"): v}, ms, print(r.w, v)
	}}
}

// shown adapts a table printer that carries no verdict.
func shown[T any](print func(io.Writer, T)) func(io.Writer, T) error {
	return func(w io.Writer, v T) error { print(w, v); return nil }
}

// derive computes a result from a shared one.
func derive[A, B any](in func(*runner) (A, error), f func(A) B) func(*runner) (B, error) {
	return func(r *runner) (B, error) {
		a, err := in(r)
		if err != nil {
			var zero B
			return zero, err
		}
		return f(a), nil
	}
}

// onSuite runs an experiment over the prepared program suite.
func onSuite[T any](f func([]*bench.ProgramData) (T, error)) func(*runner) (T, error) {
	return func(r *runner) (T, error) {
		progs, err := r.suite()
		if err != nil {
			var zero T
			return zero, err
		}
		return f(progs)
	}
}

func experimentNames() []string {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return names
}

// selectExperiments resolves a comma-separated -experiment list against the
// table, returning the selected rows in table order.
func selectExperiments(list string) ([]experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, e := range experiments {
			if e.name == name || name == "all" && e.inAll {
				want[e.name], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown experiment %q (want all or a comma-separated list of %s)", name, strings.Join(experimentNames(), ", "))
		}
	}
	var sel []experiment
	for _, e := range experiments {
		if want[e.name] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// runner carries the configuration and the inputs the experiments share:
// the prepared program suite and the Fig 8 and Fig 10 results, each
// computed once, on first use.
type runner struct {
	config
	w     io.Writer
	suite func() ([]*bench.ProgramData, error)
	f8    func() (*bench.Fig8Result, error)
	f10   func() ([]bench.VariantResult, error)
}

func (r *runner) fig8() (*bench.Fig8Result, error)      { return r.f8() }
func (r *runner) fig10() ([]bench.VariantResult, error) { return r.f10() }

func newRunner(c config, w io.Writer) *runner {
	r := &runner{config: c, w: w}
	r.suite = sync.OnceValues(func() ([]*bench.ProgramData, error) {
		profiles := progen.Suite()
		if c.programs != "" {
			profiles = nil
			for _, name := range strings.Split(c.programs, ",") {
				p, ok := progen.ByName(strings.TrimSpace(name))
				if !ok {
					return nil, fmt.Errorf("unknown program %q", name)
				}
				profiles = append(profiles, p)
			}
		}
		fmt.Fprintf(w, "preparing %d programs (campaign %d iterations each)...\n", len(profiles), c.campaign)
		var progs []*bench.ProgramData
		for _, p := range profiles {
			pd, err := bench.Prepare(p, c.campaign)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "  %-11s corpus=%d\n", pd.Name, len(pd.Corpus))
			progs = append(progs, pd)
		}
		fmt.Fprintln(w)
		return progs, nil
	})
	r.f8 = sync.OnceValues(func() (*bench.Fig8Result, error) { return onSuite(bench.RunFig8)(r) })
	r.f10 = sync.OnceValues(func() ([]bench.VariantResult, error) { return onSuite(bench.RunFig10)(r) })
	return r
}

func run(c config) error {
	sel, err := selectExperiments(c.experiment)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	report := map[string]any{}
	if c.jsonOut {
		// Human-readable tables and progress move to stderr; stdout carries
		// exactly one JSON document.
		w = os.Stderr
		defer func() {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(report)
		}()
	}
	if c.metricsAddr != "" {
		bench.Telemetry = telemetry.NewRegistry()
		srv, err := telemetry.Serve(c.metricsAddr, bench.Telemetry, func() any {
			return map[string]any{"experiment": c.experiment}
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving on %s\n", srv.Addr())
	}

	r := newRunner(c, w)
	var metrics []bench.Metric
	for _, e := range sel {
		rep, ms, err := e.run(r)
		maps.Copy(report, rep)
		metrics = append(metrics, ms...)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(w)
	}
	return finishArtifact(os.Stderr, bench.NewArtifact(metrics), c.benchOut, c.benchCompare)
}

// finishArtifact writes and/or compares the run's benchmark artifact.
func finishArtifact(w io.Writer, art *bench.Artifact, benchOut, benchCompare string) error {
	if benchOut == "" && benchCompare == "" {
		return nil
	}
	if len(art.Metrics) == 0 {
		fmt.Fprintf(w, "bench artifact: none of the selected experiments records metrics; nothing to record\n")
		return nil
	}
	if benchOut != "" {
		if err := art.WriteFile(benchOut); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench artifact: wrote %s (%d metrics)\n", benchOut, len(art.Metrics))
	}
	if benchCompare != "" {
		ref, err := bench.LoadArtifact(benchCompare)
		if err != nil {
			return err
		}
		if bad := bench.CompareArtifacts(ref, art); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintf(w, "bench regression: %s\n", b)
			}
			return fmt.Errorf("%d benchmark regressions vs %s", len(bad), benchCompare)
		}
		fmt.Fprintf(w, "bench artifact: no regression vs %s (%d metrics)\n", benchCompare, len(ref.Metrics))
	}
	return nil
}
