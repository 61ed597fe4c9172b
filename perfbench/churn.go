package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"time"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/progen"
)

// probe-churn: one closed-loop driver makes seeded add, remove and change
// operations on random functions of every suite program, each followed by
// Schedule and Rebuild through core.Engine. Before timing, every program's
// registry is aged with agingPairs add/remove pairs and no rebuilds, the
// history a long-running campaign accumulates. A round is opsPerProgram
// operations per program in a seeded interleaving; rounds repeat a fixed
// number of times derived from --seconds, so a seed always makes the same
// operations and meets the same failures.
const (
	agingPairs    = 50000
	opsPerProgram = 8
	// churnRoundSeconds is the nominal wall time of one round, reads
	// included, on a 2-vCPU Xeon VM.
	churnRoundSeconds = 1.1
	// maxActive bounds the live probes per program; the driver removes or
	// changes instead of adding beyond it.
	maxActive = 12
	// churnSetups is how many times the whole suite is set up; setup_s is
	// the median, and the last set-up is the one churned.
	churnSetups = 5
	// churnReads is how many probe-state reads are timed per program and
	// round. A read scans the whole aged registry, so a few suffice.
	churnReads = 2
	// vmInputs seeded inputs time the VM on each churned image.
	vmInputs = 256
)

// churnHook is the runtime hook churn probes call.
const churnHook = "__perfbench_hit"

// churnProbe instruments its target's entry block with a call carrying its
// site and variant; a change op bumps the variant, so the instrumentation
// really differs and the function recompiles.
type churnProbe struct {
	fn      string
	site    int64
	variant int64
}

func (p *churnProbe) PatchTarget() string { return p.fn }

func (p *churnProbe) Instrument(s *core.Sched) error {
	f := s.MapFunc(p.fn)
	if f == nil {
		return fmt.Errorf("perfbench: %s not in recompilation", p.fn)
	}
	nb := f.Blocks[0]
	hook := s.LookupFunction(churnHook, &ir.FuncType{Params: []ir.Type{ir.I64, ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(nb, len(nb.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.site), ir.Const(ir.I64, p.variant))
	return nil
}

// churnProg is one program under churn: its engine, the functions adds
// target, and the driver's model of the active probes.
type churnProg struct {
	name string
	eng  *core.Engine
	adds *funcCycle
	// active is the model of the manager's active probes by engine ID;
	// committed is the model as of the last committed image.
	active    map[int]*churnProbe
	committed map[int]churnProbe
	sites     int64
}

// instrumentable lists the defined, non-empty functions of m.
func instrumentable(m *ir.Module) []string {
	var out []string
	for _, f := range m.Funcs {
		if !f.IsDecl() && len(f.Blocks) > 0 {
			out = append(out, f.Name)
		}
	}
	return out
}

// setupChurn builds and ages one engine per program, returning the
// programs and the core.New and BuildAll times summed over the suite.
func setupChurn(suite []progen.Profile, aging int, rng *rand.Rand) ([]*churnProg, time.Duration, time.Duration, time.Duration, error) {
	var progs []*churnProg
	var tNew, tBuild, tAge time.Duration
	for _, prof := range suite {
		m := prof.Generate()
		funcs := instrumentable(m)
		t0 := time.Now()
		eng, err := core.New(m, core.Options{Variant: core.VariantOdin, ExtraBuiltins: []string{churnHook}, AdoptModule: true})
		t1 := time.Now()
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("%s: core.New: %w", prof.Name, err)
		}
		if _, _, err := eng.BuildAll(); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("%s: BuildAll: %w", prof.Name, err)
		}
		t2 := time.Now()
		cp := &churnProg{name: prof.Name, eng: eng, adds: newFuncCycle(funcs, rng),
			active: map[int]*churnProbe{}, committed: map[int]churnProbe{}}
		for i := 0; i < aging; i++ {
			cp.sites++
			id := eng.Manager.Add(&churnProbe{fn: funcs[rng.IntN(len(funcs))], site: cp.sites})
			if err := eng.Manager.Remove(id); err != nil {
				return nil, 0, 0, 0, err
			}
		}
		tAge += time.Since(t2)
		tNew += t1.Sub(t0)
		tBuild += t2.Sub(t1)
		progs = append(progs, cp)
	}
	return progs, tNew, tBuild, tAge, nil
}

// churnStats accumulates a pass.
type churnStats struct {
	ops      []time.Duration
	reads    []time.Duration
	rebuilds rebuildAgg
	opWall   time.Duration // in the op phases, reads excluded
}

func runProbeChurn(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	suite := progen.Suite()
	aging, perProg := agingPairs, opsPerProgram
	setupsN := churnSetups
	if cfg.tiny {
		suite = fuzzSuite(cfg)
		aging, perProg, setupsN = 500, 3, 1
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0xc4))

	var progs []*churnProg
	var setups []float64
	var newMS, buildMS float64
	for i := 0; i < setupsN; i++ {
		// Let the previous set-up go before building the next.
		for _, cp := range progs {
			cp.eng.Close()
		}
		progs = nil
		runtime.GC()
		var err error
		var tNew, tBuild, tAge time.Duration
		// Every set-up draws the same aging sequence.
		progs, tNew, tBuild, tAge, err = setupChurn(suite, aging, rand.New(rand.NewPCG(cfg.seed, 0xa9e)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, (tNew + tBuild + tAge).Seconds())
		newMS += msOf(tNew)
		buildMS += msOf(tBuild)
	}

	// Warm-up: one untimed op per program absorbs the first rebuild after
	// aging, which revisits every function the aging touched.
	cs := &churnStats{}
	warm := &churnStats{}
	for _, cp := range progs {
		churnOp(cp, rng, rep, nil, warm)
	}

	mem := startMem()
	start := time.Now()
	nRounds := roundsFor(cfg.seconds, churnRoundSeconds)
	rounds := 0
	for rounds < nRounds {
		order := make([]int, 0, len(progs)*perProg)
		for pi := range progs {
			for k := 0; k < perProg; k++ {
				order = append(order, pi)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		t0 := time.Now()
		for _, pi := range order {
			churnOp(progs[pi], rng, rep, tr, cs)
		}
		cs.opWall += time.Since(t0)
		// Reads of probe state on the aged registries, off the ops' clock:
		// a fixed sample per round to time the read path, not a model of
		// how often a caller polls.
		for _, cp := range progs {
			for k := 0; k < churnReads; k++ {
				sp := tr.begin("probe.read", -1, 0)
				t0 := time.Now()
				_ = cp.eng.Manager.NumActive()
				cs.reads = append(cs.reads, time.Since(t0))
				tr.end(sp)
			}
		}
		rounds++
	}
	loopWall := time.Since(start)
	mallocs, pause := mem.stop()

	// Verdicts per program: the model matches the manager, the image equals
	// a cold build with the committed probes, and a seeded sample of inputs
	// runs identically on the VM and in the interpreter.
	var vmt execTotals
	for pi, cp := range progs {
		rep.attempted++
		if got := cp.eng.Manager.NumActive(); got != len(cp.active) {
			rep.mismatch(cp.name, "model", fmt.Sprintf("manager has %d active probes, driver model %d", got, len(cp.active)))
		}
		rep.attempted++
		cold, err := coldImage(suite[pi].Generate(), []string{churnHook}, cp.committedProbes())
		switch {
		case err != nil:
			rep.mismatch(cp.name, "cold-build", err.Error())
		case !sameImage(cp.eng.Executable(), cold):
			rep.mismatch(cp.name, "image", "incrementally rebuilt image differs from a cold build with the same probes")
		}
		inputs := seededInputs(cfg.seed, pi, vmInputs)
		checkSample(rep, cp.name, cp.eng.Pristine, cp.eng.Executable(), []string{churnHook}, inputs, cfg.seed)
		vmt.add(timeVM(tr, cp.eng.Executable(), []string{churnHook}, inputs))
	}

	rep.add("setup_s", medianf(setups), "s", len(setups))
	rep.add("execs_per_s", ratio(float64(vmt.n), vmt.dur.Seconds()), "1/s", vmt.n)
	rep.add("cycles_per_exec", ratio(float64(vmt.cycles), float64(vmt.n)), "cycles", vmt.n)
	rep.addLatencies("op", cs.ops)
	rep.add("ops_per_s", ratio(float64(len(cs.ops)), cs.opWall.Seconds()), "1/s", len(cs.ops))
	rep.addLatencies("read", cs.reads)
	rep.addOK()
	rep.add("heap_mb", liveHeapMB(), "MB", 0)
	rep.opP50 = percentile(cs.ops, 50)
	fmt.Printf("# probe-churn: %d programs aged %d pairs, %d rounds x %d ops, %.1fs in the loop\n",
		len(progs), aging, rounds, len(progs)*perProg, loopWall.Seconds())

	if tr != nil {
		l := layerMetrics(tr, &cs.rebuilds, mallocs, pause, len(cs.ops))
		l.set("vm.cycles", ratio(float64(vmt.cycles), float64(vmt.n)), vmt.n)
		l.set("core.new_ms", newMS/float64(setupsN), setupsN)
		l.set("core.buildall_ms", buildMS/float64(setupsN), setupsN)
		rep.layers = l
	}
	for _, cp := range progs {
		cp.eng.Close()
	}
	return rep, nil
}

// churnOp makes one seeded probe change on cp and rebuilds. A failed
// rebuild is counted and the program keeps its last committed image; the
// change stays pending in the manager and lands with the next rebuild that
// succeeds.
func churnOp(cp *churnProg, rng *rand.Rand, rep *report, tr *tracer, cs *churnStats) {
	mgr := cp.eng.Manager
	ids := make([]int, 0, len(cp.active))
	for id := range cp.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	action := rng.IntN(3) // 0 add, 1 remove, 2 change
	switch {
	case len(ids) == 0:
		action = 0
	case len(ids) >= maxActive && action == 0:
		action = 1 + rng.IntN(2)
	}
	var target int
	var fn string
	if action == 0 {
		fn = cp.adds.pick()
	} else {
		target = ids[rng.IntN(len(ids))]
	}

	op := tr.newOp()
	root := tr.begin("churn.op", -1, op)
	t0 := time.Now()
	sp := tr.begin("patchmgr.op", root, op)
	var err error
	switch action {
	case 0:
		cp.sites++
		p := &churnProbe{fn: fn, site: cp.sites}
		cp.active[mgr.Add(p)] = p
	case 1:
		err = mgr.Remove(target)
		delete(cp.active, target)
	case 2:
		cp.active[target].variant++
		err = mgr.MarkChanged(target)
	}
	tr.end(sp)
	var st *core.RebuildStats
	if err == nil {
		st, err = tracedRebuild(tr, cp.eng, root, op)
	}
	d := time.Since(t0)
	tr.end(root)
	rep.attempted++
	if err != nil {
		rep.fail(cp.name, errClass(err))
		rep.example(errClass(err), err)
		cs.rebuilds.failed++
		return
	}
	cs.ops = append(cs.ops, d)
	cs.rebuilds.add(st)
	cp.committed = make(map[int]churnProbe, len(cp.active))
	for id, p := range cp.active {
		cp.committed[id] = *p
	}
}

// tracedRebuild runs Schedule and Rebuild, each under a span, and lays the
// stages of the returned RebuildStats inside the rebuild span.
func tracedRebuild(tr *tracer, eng *core.Engine, parent int32, op int64) (*core.RebuildStats, error) {
	sp := tr.begin("core.schedule", parent, op)
	sched, err := eng.Schedule()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rb := tr.begin("core.rebuild", parent, op)
	_, st, err := sched.Rebuild()
	tr.end(rb)
	if err != nil {
		return nil, err
	}
	recordStages(tr, rb, op, tr.startOf(rb), st)
	return st, nil
}

// committedProbes returns copies of the probes of the last committed image
// in engine-ID order, the order the engine applies them in.
func (cp *churnProg) committedProbes() []core.Probe {
	ids := make([]int, 0, len(cp.committed))
	for id := range cp.committed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]core.Probe, 0, len(ids))
	for _, id := range ids {
		p := cp.committed[id]
		out = append(out, &p)
	}
	return out
}

// seededInputs returns n inputs for one program: short random byte
// strings, half led by the 'B' magic byte the suite's parsers dispatch on.
func seededInputs(seed uint64, prog, n int) [][]byte {
	r := rand.New(rand.NewPCG(seed, 0x1e0+uint64(prog)))
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, 4+r.IntN(28))
		for j := range b {
			b[j] = byte(r.Uint32())
		}
		if i%2 == 0 {
			b[0] = 0x42
		}
		out[i] = b
	}
	return out
}
