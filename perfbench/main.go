// Command perfbench is the repository's benchmark of record. It drives the
// public surface of the engine (core), the coverage tool (cov), the VM, the
// fuzzer and the probe-control daemon (serve, persist) from outside, on three
// seeded workloads:
//
//	fuzz-prune   OdinCov campaigns with Untracer-style pruning over the suite
//	probe-churn  closed-loop add/remove/change + Schedule + Rebuild on aged registries
//	serve-mixed  open-loop HTTP writes and reads against a warm-booted odin-serve
//
// Usage (see run.sh, which builds the binary from the checkout):
//
//	perfbench --workload fuzz-prune --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics. With --trace 1 it
// runs the workload twice, untraced and traced, records a span around every
// public call of the traced pass, writes the spans to -out, and reports the
// per-layer self times, the sum check and the tracing overhead. Human-readable
// lines come first; the last stdout line is the result JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, tr *tracer) (*report, error){
	"fuzz-prune":  runFuzzPrune,
	"probe-churn": runProbeChurn,
	"serve-mixed": runServeMixed,
}

// config is one run's parameters.
type config struct {
	seed    uint64
	seconds float64
	// tiny shrinks every workload to the smoke-test size the benchmark's
	// own test runs; the numbers it yields are not measurements.
	tiny bool
	// out is the directory for span files and serve data dirs.
	out string
}

// metric is one reported number. N is the sample count it was computed
// from (0 for whole-run figures such as throughput).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// report is what a workload pass yields: its ops, failures by class, the
// correctness verdicts, and its metrics.
type report struct {
	attempted int
	failed    int
	// failures counts failed or wrong operations by "program: class".
	failures map[string]int
	// wrong lists correctness-check mismatches; any makes the run incorrect.
	wrong []string
	// examples keeps the first error message of each failure class.
	examples map[string]string
	// metrics are the end-to-end metrics; layers, set only by a traced
	// pass, the per-layer ones.
	metrics []metric
	layers  layerSet
	// opP50 is the untraced/traced comparison point for tracing overhead.
	opP50 time.Duration
}

func newReport() *report {
	return &report{failures: map[string]int{}, examples: map[string]string{}}
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

// fail counts one failed operation under a named class.
func (r *report) fail(program, class string) {
	r.failed++
	r.failures[program+": "+class]++
}

// example keeps the first message seen for a failure class.
func (r *report) example(class string, err error) {
	if _, ok := r.examples[class]; !ok {
		r.examples[class] = err.Error()
	}
}

// addOK reports the share of attempted operations that neither failed nor
// produced a wrong result.
func (r *report) addOK() {
	r.add("ok_pct", 100*ratio(float64(r.attempted-r.failed), float64(r.attempted)), "%", r.attempted)
}

// mismatch counts one wrong output: a failed operation and a failed verdict.
func (r *report) mismatch(program, check, detail string) {
	r.fail(program, "wrong-"+check)
	r.wrong = append(r.wrong, fmt.Sprintf("%s: %s: %s", program, check, detail))
}

func main() {
	workload := flag.String("workload", "", "fuzz-prune, probe-churn or serve-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "nominal measured time per pass; it sets the number of rounds or requests")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for span files and serve data dirs")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want fuzz-prune, probe-churn or serve-mixed)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, out: *out}
	res, err := execute(*workload, run, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printResult(os.Stdout, *workload, cfg, *trace == 1, res)
}

// execute runs one workload. Untraced, it is a single pass. Traced, it runs
// an untraced pass and a traced pass of the same seed, each with half the
// time, and adds the tracing overhead and the per-layer metrics derived from
// the spans.
func execute(name string, run func(config, *tracer) (*report, error), cfg config, traced bool) (*report, error) {
	if !traced {
		return run(cfg, nil)
	}
	half := cfg
	half.seconds = cfg.seconds / 2
	plain, err := run(half, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	res, err := run(half, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	res.attempted += plain.attempted
	res.failed += plain.failed
	for k, v := range plain.failures {
		res.failures[k] += v
	}
	res.wrong = append(res.wrong, plain.wrong...)
	for k, v := range plain.examples {
		if _, ok := res.examples[k]; !ok {
			res.examples[k] = v
		}
	}

	sum := tr.sumCheck(opRoots)
	if res.layers == nil {
		res.layers = layerSet{}
	}
	res.layers.set("trace.overhead_pct", 100*ratio(float64(res.opP50-plain.opP50), float64(plain.opP50)), sum.ops)
	res.layers.set("trace.unaccounted_pct", sum.unaccountedPct(), sum.ops)
	res.layers.set("trace.spans", float64(len(tr.spans)), 0)
	if !sum.ok() {
		res.wrong = append(res.wrong, fmt.Sprintf("trace: sum check: %s", sum))
	}
	path := fmt.Sprintf("%s/spans-%s-seed%d.json", cfg.out, name, cfg.seed)
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("# spans: %d written to %s; sum check: %s\n", len(tr.spans), path, sum)
	return res, nil
}

// roundsFor is the number of rounds of nominal length perRound that fill
// seconds, at least one. Runs are bounded by this count, not by the clock,
// so two runs of one seed do the same operations on any machine.
func roundsFor(seconds, perRound float64) int {
	return max(1, int(math.Round(seconds/perRound)))
}

// fingerprint describes the machine the numbers were taken on.
func fingerprint() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s %s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printResult writes the human-readable summary (machine, failures by
// class, verdicts, every metric with unit and sample count) and then the
// result JSON as the last line.
func printResult(w io.Writer, workload string, cfg config, traced bool, r *report) {
	fmt.Fprintf(w, "# machine: %s\n", fingerprint())
	fmt.Fprintf(w, "# workload %s seed %d seconds %g trace %v\n", workload, cfg.seed, cfg.seconds, traced)
	failedPct := 0.0
	if r.attempted > 0 {
		failedPct = 100 * float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "# ops attempted %d, failed %d (failed_pct %.3f%%)\n", r.attempted, r.failed, failedPct)
	keys := make([]string, 0, len(r.failures))
	for k := range r.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# failed  %-44s %d\n", k, r.failures[k])
	}
	keys = keys[:0]
	for k := range r.examples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# example %s: %s\n", k, r.examples[k])
	}
	for _, m := range r.wrong {
		fmt.Fprintf(w, "# WRONG   %s\n", m)
	}
	verdict := "PASS"
	if len(r.wrong) > 0 {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "# correctness verdict: %s (%d mismatches)\n", verdict, len(r.wrong))
	out := jsonResult{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range selectMetrics(r, traced) {
		fmt.Fprintf(w, "%-30s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		out.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	if !traced {
		// Figures reported beside the gated set, such as read_p99_ms.
		for _, m := range r.metrics {
			if _, ok := out.Metrics[m.Name]; !ok {
				fmt.Fprintf(w, "# ungated %-22s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
			}
		}
	}
	b, _ := json.Marshal(out) // plain structs of numbers and strings cannot fail
	fmt.Fprintln(w, string(b))
}

// selectMetrics returns the metrics a run prints, in the canonical order:
// every end-to-end metric untraced, every per-layer metric traced. A metric
// the workload did not produce reads 0; a non-finite value reads 0 too, so
// the JSON stays valid.
func selectMetrics(r *report, traced bool) []metric {
	have := map[string]metric{}
	names := endToEnd
	if traced {
		names = perLayer
		for k, m := range r.layers {
			have[k] = m
		}
	} else {
		for _, m := range r.metrics {
			have[m.Name] = m
		}
	}
	out := make([]metric, 0, len(names))
	for _, n := range names {
		m := have[n.name]
		m.Name, m.Unit = n.name, n.unit
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out = append(out, m)
	}
	return out
}
