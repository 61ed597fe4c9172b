package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"odin/internal/core"
	"odin/internal/interp"
	"odin/internal/ir"
	"odin/internal/link"
	"odin/internal/rt"
	"odin/internal/vm"
)

// errClass names the class of a failed operation, for the per-program
// failure table.
func errClass(err error) string {
	var ue *link.UndefError
	var de *link.DupError
	var te *core.TimeoutError
	var ve *ir.VerifyError
	var fe core.FragError
	switch {
	case errors.As(err, &ue):
		return "link: undefined symbol"
	case errors.As(err, &de):
		return "link: duplicate symbol"
	case errors.As(err, &te):
		return "rebuild timeout"
	case errors.As(err, &ve):
		return "invalid IR"
	case errors.As(err, &fe):
		return "stage " + fe.Stage
	}
	msg := err.Error()
	if len(msg) > 48 {
		msg = msg[:48]
	}
	return msg
}

// sameImage reports whether two linked images are byte-identical: the same
// functions with the same machine code, and the same data segment.
func sameImage(a, b *link.Executable) bool {
	if a == nil || b == nil {
		return false
	}
	return reflect.DeepEqual(a.Funcs, b.Funcs) &&
		(len(a.Data) == 0 && len(b.Data) == 0 || reflect.DeepEqual(a.Data, b.Data))
}

// coldImage builds a fresh engine for module m with the given probes active
// and returns its image: the reference an incrementally rebuilt image must
// equal.
func coldImage(m *ir.Module, builtins []string, probes []core.Probe) (*link.Executable, error) {
	eng, err := core.New(m, core.Options{Variant: core.VariantOdin, ExtraBuiltins: builtins, AdoptModule: true})
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		eng.Manager.Add(p)
	}
	exe, _, err := eng.BuildAll()
	return exe, err
}

// execSample is the VM side of the interpreter cross-check: the outcome of
// running one input on an instrumented image.
type execSample struct {
	ret    int64
	out    string
	trap   bool
	cycles int64
	dur    time.Duration
}

// newMachine loads exe with its instrumentation hooks bound to no-ops.
func newMachine(exe *link.Executable, hooks []string) *vm.Machine {
	mach := vm.New(exe)
	for _, h := range hooks {
		mach.Env.Builtins[h] = func(*rt.Env, []int64) (int64, error) { return 0, nil }
	}
	return mach
}

// runVM executes one input; RunProgram resets the machine first.
func runVM(mach *vm.Machine, input []byte) execSample {
	t0 := time.Now()
	ret, out, cycles, err := vm.RunProgram(mach, input)
	return execSample{ret: ret, out: out, trap: err != nil, cycles: cycles, dur: time.Since(t0)}
}

// matchInterp checks one VM outcome against the IR interpreter on the
// pristine module, returning a description of the first difference.
func matchInterp(pristine *ir.Module, input []byte, got execSample) (string, bool) {
	ret, out, err := interp.RunProgram(pristine, input)
	switch {
	case (err != nil) != got.trap:
		return fmt.Sprintf("input %q: vm trap=%v, interp err=%v", input, got.trap, err), false
	case err != nil:
		return "", true // both trapped
	case ret != got.ret || out != got.out:
		return fmt.Sprintf("input %q: vm (%d, %q) != interp (%d, %q)", input, got.ret, got.out, ret, out), false
	}
	return "", true
}

// execTotals accumulates the VM executions of cross-check samples.
type execTotals struct {
	n      int
	cycles int64
	dur    time.Duration
}

// checkSample cross-checks checkInputs seeded picks from inputs between the
// VM on exe and the interpreter on pristine, counting each as an attempted
// operation and each difference as a wrong one.
func checkSample(rep *report, prog string, pristine *ir.Module, exe *link.Executable, hooks []string, inputs [][]byte, seed uint64) {
	if len(inputs) == 0 {
		return
	}
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	mach := newMachine(exe, hooks)
	for k := 0; k < checkInputs; k++ {
		in := inputs[r.IntN(len(inputs))]
		got := runVM(mach, in)
		rep.attempted++
		if diff, ok := matchInterp(pristine, in, got); !ok {
			rep.mismatch(prog, "vm-vs-interp", diff)
		}
	}
}

// timeVM runs every input once on one machine for exe, recording a vm.exec
// span per run, and returns the totals: the execution cost of an
// instrumented image outside a fuzzing campaign.
func timeVM(tr *tracer, exe *link.Executable, hooks []string, inputs [][]byte) execTotals {
	var tot execTotals
	mach := newMachine(exe, hooks)
	for _, in := range inputs {
		sp := tr.begin("vm.exec", -1, 0)
		got := runVM(mach, in)
		tr.end(sp)
		tot.n++
		tot.cycles += got.cycles
		tot.dur += got.dur
	}
	return tot
}

func (t *execTotals) add(o execTotals) {
	t.n += o.n
	t.cycles += o.cycles
	t.dur += o.dur
}

// funcCycle hands out functions in a seeded permutation, cycling, so over a
// run every function is picked about equally often and the mix of cheap
// and expensive rebuild targets varies little from seed to seed.
type funcCycle struct {
	funcs []string
	next  int
}

func newFuncCycle(funcs []string, rng *rand.Rand) *funcCycle {
	c := &funcCycle{funcs: make([]string, len(funcs))}
	for i, j := range rng.Perm(len(funcs)) {
		c.funcs[i] = funcs[j]
	}
	return c
}

func (c *funcCycle) pick() string {
	f := c.funcs[c.next%len(c.funcs)]
	c.next++
	return f
}
