package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"odin/internal/core"
	"odin/internal/progen"
)

// benchSpec is the part of BENCHMARK.json the test checks against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsPrintEveryMetric runs each workload at a tiny size, untraced
// and traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and sample count, and lands in the result JSON.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		t.Run(w.Name, func(t *testing.T) {
			checkWorkloadOutput(t, spec, w.Name, run)
		})
	}
}

// checkWorkloadOutput runs one workload untraced and traced and checks its
// printed result against spec.
func checkWorkloadOutput(t *testing.T, spec benchSpec, name string, run func(config, *tracer) (*report, error)) {
	for _, traced := range []bool{false, true} {
		cfg := config{seed: 1, seconds: 0.05, tiny: true, out: t.TempDir()}
		res, err := execute(name, run, cfg, traced)
		if err != nil {
			t.Fatalf("%s traced=%v: %v", name, traced, err)
		}
		var buf bytes.Buffer
		printResult(&buf, name, cfg, traced, res)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var out jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatalf("%s: last line is not the result JSON: %v", name, err)
		}
		if !out.Correct || out.Attempted < 1 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d\n%s", name, traced, out.Correct, out.Attempted, buf.String())
		}
		want := spec.EndToEnd
		if traced {
			want = spec.PerLayer
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", name, traced, len(out.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := out.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s traced=%v: metric %s: got %+v (present %v), want unit %s", name, traced, m.Name, got, ok, m.Unit)
			}
			if !traced && got.Value == 0 && m.Name != "setup_s" {
				t.Errorf("%s: end-to-end metric %s reads 0", name, m.Name)
			}
			found := false
			for _, l := range lines {
				f := strings.Fields(l)
				if len(f) == 4 && f[0] == m.Name && f[2] == m.Unit && strings.HasPrefix(f[3], "n=") {
					found = true
				}
			}
			if !found {
				t.Errorf("%s traced=%v: no summary line with unit and sample count for %s", name, traced, m.Name)
			}
		}
	}
}

// TestFailedRebuildIsCounted makes one churn op's rebuild fail at link and
// checks that it is counted as a failed operation, not fatal: the program
// keeps its last committed image, and the pending change lands with the
// next rebuild that succeeds.
func TestFailedRebuildIsCounted(t *testing.T) {
	prof, _ := progen.ByName("woff2")
	m := prof.Generate()
	failLink := true
	eng, err := core.New(m, core.Options{
		ExtraBuiltins: []string{churnHook},
		AdoptModule:   true,
		FaultHook: func(site string) error {
			if failLink && strings.HasPrefix(site, "link:") {
				return errors.New("injected link failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	failLink = false
	if _, _, err := eng.BuildAll(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	cp := &churnProg{name: "woff2", eng: eng, adds: newFuncCycle(instrumentable(eng.Pristine), rng),
		active: map[int]*churnProbe{}, committed: map[int]churnProbe{}}
	rep, cs := newReport(), &churnStats{}

	before := eng.Executable()
	failLink = true
	churnOp(cp, rng, rep, nil, cs)
	if rep.attempted != 1 || rep.failed != 1 || cs.rebuilds.failed != 1 || len(cs.ops) != 0 {
		t.Fatalf("failed rebuild: attempted %d failed %d rebuild.failed %d ops %d, want 1 1 1 0",
			rep.attempted, rep.failed, cs.rebuilds.failed, len(cs.ops))
	}
	if eng.Executable() != before {
		t.Fatal("a failed rebuild replaced the image")
	}
	if len(cp.committed) != 0 {
		t.Fatalf("a failed rebuild committed %d probes", len(cp.committed))
	}

	failLink = false
	churnOp(cp, rng, rep, nil, cs)
	if rep.failed != 1 || len(cs.ops) != 1 {
		t.Fatalf("next op: failed %d ops %d, want 1 1", rep.failed, len(cs.ops))
	}
	if len(cp.committed) != len(cp.active) {
		t.Fatalf("committed %d probes, model has %d active", len(cp.committed), len(cp.active))
	}
	if got := eng.Manager.NumActive(); got != len(cp.active) {
		t.Fatalf("manager has %d active probes, model %d", got, len(cp.active))
	}
	cold, err := coldImage(prof.Generate(), []string{churnHook}, cp.committedProbes())
	if err != nil {
		t.Fatal(err)
	}
	if !sameImage(eng.Executable(), cold) {
		t.Fatal("image after the recovered op differs from a cold build")
	}
}

// TestKnownDefectVisible checks that the fuzz-prune workload at tiny size,
// which includes libxml2, reports the splice link failure as failed
// operations by class while the run itself completes.
func TestKnownDefectVisible(t *testing.T) {
	res, err := runFuzzPrune(config{seed: 1, seconds: 0.05, tiny: true, out: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.wrong) != 0 {
		t.Fatalf("wrong outputs: %v", res.wrong)
	}
	if res.failed == 0 {
		t.Skip("libxml2's splice link failure did not trigger at this size; the defect may be fixed")
	}
	for k := range res.failures {
		if !strings.Contains(k, "link: undefined symbol") {
			t.Errorf("unexpected failure class %q", k)
		}
	}
}

// TestSumCheckFails checks that the sum check rejects span layouts whose
// self times would be wrong — a child outside its parent, overlapping
// siblings — and an operation root whose own self time exceeds the
// tolerance, and passes a well-formed operation.
func TestSumCheckFails(t *testing.T) {
	type sp struct {
		name       string
		start, end int64
		parent     int32
	}
	check := func(spans ...sp) sumResult {
		tr := newTracer()
		for _, s := range spans {
			tr.spans = append(tr.spans, span{Name: s.name, Start: s.start, End: s.end, Parent: s.parent, Op: 1})
		}
		return tr.sumCheck(opRoots)
	}
	cases := []struct {
		name  string
		ok    bool
		spans []sp
	}{
		{"well-formed", true, []sp{{"churn.op", 0, 100, -1}, {"core.schedule", 1, 40, 0}, {"core.rebuild", 40, 99, 0}, {"rebuild.compile", 40, 90, 2}}},
		{"child past its parent", false, []sp{{"churn.op", 0, 100, -1}, {"core.rebuild", 1, 99, 0}, {"rebuild.compile", 1, 120, 1}}},
		{"child before its parent", false, []sp{{"prune.op", 10, 100, -1}, {"cov.maybe_prune", 5, 99, 0}}},
		{"overlapping siblings", false, []sp{{"churn.op", 0, 100, -1}, {"core.schedule", 1, 60, 0}, {"core.rebuild", 50, 99, 0}}},
		{"root glue over tolerance", false, []sp{{"serve.write", 0, 100, -1}, {"http.write_rtt", 10, 100, 0}}},
		{"no operations", false, []sp{{"vm.exec", 0, 100, -1}}},
	}
	for _, c := range cases {
		if r := check(c.spans...); r.ok() != c.ok {
			t.Errorf("%s: ok=%v, want %v (%s)", c.name, r.ok(), c.ok, r)
		}
	}
}
