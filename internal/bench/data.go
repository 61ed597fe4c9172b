// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§5) on the generated program suite.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Fig3     — compilation cost breakdown per pipeline stage
//	Fig8/9   — normalized execution duration of the five coverage tools
//	Fig10    — partition-variant execution overhead (Table 1 variants)
//	Fig11    — average per-fragment recompilation time (normalized)
//	Fig12    — worst-case recompilation + link time (absolute)
//	Headline — mean on-the-fly recompilation latency
package bench

import (
	"errors"
	"fmt"

	"odin/internal/fuzz"
	"odin/internal/ir"
	"odin/internal/progen"
	"odin/internal/rt"
	"odin/internal/sancov"
	"odin/internal/telemetry"
	"odin/internal/toolchain"
	"odin/internal/vm"
)

// Telemetry, when non-nil, is attached to every engine the harness creates
// (odin-bench -metrics-addr sets it), so a long bench run can be observed
// live. Counters accumulate across the run's engines; gauges reflect the
// most recently created one.
var Telemetry *telemetry.Registry

// ProgramData is one prepared benchmark target: its pristine module and the
// replay corpus collected from a deterministic fuzzing campaign (replaying
// seeds avoids fuzzing randomness, §5).
type ProgramData struct {
	Name    string
	Profile progen.Profile
	Module  *ir.Module
	Corpus  [][]byte
	// Repeats is how many times the corpus is replayed per measurement.
	// The paper replays seed sets from a 24-hour campaign, far longer
	// than OdinCov's pruning transient; repeating the (small) generated
	// corpus approximates that steady state identically for every tool.
	Repeats int
}

// sancovTarget adapts a SanCov build for corpus generation.
type sancovTarget struct {
	mach *vm.Machine
	meta *sancov.Meta
	seen map[int]bool
}

func (s *sancovTarget) Execute(input []byte) (fuzz.Feedback, error) {
	_, _, cycles, err := vm.RunProgram(s.mach, input)
	fb := fuzz.Feedback{Cycles: cycles}
	if err != nil {
		var trap *rt.TrapError
		if errors.As(err, &trap) {
			fb.Crashed = true
			return fb, nil
		}
		return fb, err
	}
	for i, c := range sancov.Coverage(s.mach, s.meta) {
		if c != 0 && !s.seen[i] {
			s.seen[i] = true
			fb.NewCoverage = true
		}
	}
	return fb, nil
}

// Prepare generates the program and a replay corpus via a campaignIters-long
// deterministic campaign on a SanCov build.
func Prepare(p progen.Profile, campaignIters int) (*ProgramData, error) {
	m := p.Generate()
	exe, meta, err := sancov.Build(m, 2)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", p.Name, err)
	}
	target := &sancovTarget{mach: vm.New(exe), meta: meta, seen: map[int]bool{}}
	f := fuzz.New(target, fuzz.Options{
		Seed:   p.Seed*2654435761 + 17,
		MaxLen: 48,
		Seeds:  [][]byte{[]byte("seed input"), {0, 1, 2, 250, 128, 66}},
	})
	if _, err := f.Run(campaignIters); err != nil {
		return nil, fmt.Errorf("bench: %s campaign: %w", p.Name, err)
	}
	return &ProgramData{Name: p.Name, Profile: p, Module: m, Corpus: f.CorpusBytes(), Repeats: 5}, nil
}

// replay executes the corpus repeats times on a machine and returns total
// cycles. Crashes (traps) are counted with the cycles they consumed.
func replay(mach *vm.Machine, corpus [][]byte, repeats int) (int64, error) {
	if repeats < 1 {
		repeats = 1
	}
	var total int64
	for r := 0; r < repeats; r++ {
		for _, in := range corpus {
			_, _, cycles, err := vm.RunProgram(mach, in)
			total += cycles
			if err != nil {
				var trap *rt.TrapError
				if !errors.As(err, &trap) {
					return total, err
				}
			}
		}
	}
	return total, nil
}

// baselineCycles builds the plain optimized program and replays the corpus.
func baselineCycles(pd *ProgramData) (int64, error) {
	exe, _, err := toolchain.BuildPreserving(pd.Module, 2)
	if err != nil {
		return 0, err
	}
	return replay(vm.New(exe), pd.Corpus, pd.Repeats)
}
