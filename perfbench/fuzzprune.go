package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"odin/internal/core"
	"odin/internal/cov"
	"odin/internal/fuzz"
	"odin/internal/progen"
	"odin/internal/rt"
)

// fuzz-prune: one OdinCov campaign with pruning per suite program, each from
// a cold cov.New, calling MaybePrune after every input that finds new
// coverage. A round is one campaign of campaignIters inputs on every program
// of the suite; rounds repeat, with fresh campaign seeds, a fixed number of
// times derived from --seconds, so a seed always runs the same campaigns and
// meets the same failures.
const (
	campaignIters = 250
	// fuzzRoundSeconds is the nominal wall time of one round, checks and
	// set-up included, on a 2-vCPU Xeon VM.
	fuzzRoundSeconds = 3.8
	// checkInputs is how many corpus inputs per campaign are cross-checked
	// between the VM and the IR interpreter.
	checkInputs = 4
	// probeReads is how many probe-state reads are timed after each
	// campaign.
	probeReads = 16
)

// pruneTarget adapts an OdinCov tool to the fuzzer and measures every
// probe change it makes.
type pruneTarget struct {
	tool *cov.Tool
	prog string
	rep  *report
	tr   *tracer
	root int32 // the campaign span
	fs   *fuzzStats

	seen   int
	active int
	// committed are the probe activation flags of the last image that
	// committed; a failed rebuild leaves the tool on that image.
	committed []bool
}

// fuzzStats accumulates a pass over all campaigns.
type fuzzStats struct {
	execs     int
	cycles    int64
	activeSum int64
	wall      time.Duration
	prunes    []time.Duration
	pruneTime time.Duration // in prune calls, failed ones included
	reads     []time.Duration
	rebuilds  rebuildAgg
	// firstRound marks the round whose campaigns are verified and whose
	// live heap is measured; limiting both to one round keeps their cost
	// and forced GCs out of the later rounds. heapMB sums the live heap at
	// the end of each first-round campaign, its tool still alive.
	firstRound bool
	heapMB     float64
}

func (c *pruneTarget) Execute(input []byte) (fuzz.Feedback, error) {
	sp := c.tr.begin("vm.exec", c.root, 0)
	res := c.tool.RunInput(input)
	c.tr.end(sp)
	c.fs.activeSum += int64(c.active)

	fb := fuzz.Feedback{Cycles: res.Cycles}
	if res.Err != nil {
		var trap *rt.TrapError
		if !errors.As(res.Err, &trap) {
			return fb, res.Err
		}
		fb.Crashed = true
		return fb, nil
	}
	if n := c.tool.CoveredCount(); n > c.seen {
		c.seen = n
		fb.NewCoverage = true
		c.prune()
	}
	return fb, nil
}

// prune calls MaybePrune — Remove per triggered probe, Schedule, Rebuild,
// Rebind — and measures it. Traced, the call gets one span; the rebuild
// inside it is derived from the RebuildStats MaybePrune appends to
// tool.Rebuilds, laid at the end of the call, where Rebuild runs and only
// Rebind follows, with its stages inside. The removes and Schedule are not
// split out here; probe-churn times them call by call.
func (c *pruneTarget) prune() {
	tr := c.tr
	op := tr.newOp()
	root := tr.begin("prune.op", c.root, op)
	sp := tr.begin("cov.maybe_prune", root, op)
	t0 := time.Now()
	pruned, err := c.tool.MaybePrune()
	d := time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if pruned == 0 && err == nil {
		return
	}
	c.rep.attempted++
	c.fs.pruneTime += d
	if err != nil {
		c.rep.fail(c.prog, errClass(err))
		c.rep.example(errClass(err), err)
		c.fs.rebuilds.failed++
		return
	}
	st := &c.tool.Rebuilds[len(c.tool.Rebuilds)-1]
	if tr != nil {
		at := tr.endOf(sp).Add(-st.Total)
		rb := tr.record("core.rebuild", sp, op, at, at.Add(st.Total))
		recordStages(tr, rb, op, at, st)
	}
	c.active -= pruned
	c.fs.prunes = append(c.fs.prunes, d)
	c.fs.rebuilds.add(st)
	for i := range c.committed {
		c.committed[i] = c.tool.Engine.Manager.IsActive(c.tool.ManagerID(i))
	}
}

func fuzzSuite(cfg config) []progen.Profile {
	suite := progen.Suite()
	if cfg.tiny {
		// The smallest programs, plus libxml2 so the known splice failure
		// shows up even at smoke-test size.
		var out []progen.Profile
		for _, p := range suite {
			if p.Name == "woff2" || p.Name == "libxml2" {
				out = append(out, p)
			}
		}
		return out
	}
	return suite
}

func runFuzzPrune(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	suite := fuzzSuite(cfg)
	iters := campaignIters
	if cfg.tiny {
		iters = 150
	}
	// Warm-up: one short campaign on a small program, untimed.
	warmProf, _ := progen.ByName("woff2")
	if _, err := campaign(warmProf, 200, cfg.seed^0xfeed, newReport(), nil, &fuzzStats{}, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	fs := &fuzzStats{}
	var setups []float64
	var newMS, buildMS float64
	mem := startMem()
	loop := time.Now()
	nRounds := roundsFor(cfg.seconds, fuzzRoundSeconds)
	rounds := 0
	// Campaign throughput is per round, reported as the median over rounds,
	// so a transient slowdown of the machine moves one round, not the
	// result.
	var execRates []float64
	for rounds < nRounds {
		fs.firstRound = rounds == 0
		execs0, wall0 := fs.execs, fs.wall
		var setup time.Duration
		for pi, prof := range suite {
			seed := campaignSeed(cfg.seed, rounds, pi)
			ct, err := campaign(prof, iters, seed, rep, tr, fs, &setup)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", prof.Name, rounds, err)
			}
			newMS += ct.newMS
			buildMS += ct.buildMS
		}
		setups = append(setups, setup.Seconds())
		execRates = append(execRates, float64(fs.execs-execs0)/(fs.wall-wall0).Seconds())
		rounds++
	}
	loopWall := time.Since(loop)
	mallocs, pause := mem.stop()

	rep.add("setup_s", medianf(setups), "s", len(setups))
	rep.add("execs_per_s", medianf(execRates), "1/s", fs.execs)
	rep.add("cycles_per_exec", ratio(float64(fs.cycles), float64(fs.execs)), "cycles", fs.execs)
	rep.addLatencies("op", fs.prunes)
	// The rebuild path's throughput while busy: committed prunes per second
	// spent in prune calls. How many prunes a round makes depends on what
	// the campaigns cover, so a per-second-of-campaign rate would mostly
	// measure the seed.
	rep.add("ops_per_s", ratio(float64(len(fs.prunes)), fs.pruneTime.Seconds()), "1/s", len(fs.prunes))
	rep.addLatencies("read", fs.reads)
	rep.addOK()
	rep.add("heap_mb", fs.heapMB, "MB", len(suite))
	rep.opP50 = percentile(fs.prunes, 50)
	fmt.Printf("# fuzz-prune: %d rounds x %d programs x %d inputs, %d prunes, %.1fs in the loop\n",
		rounds, len(suite), iters, len(fs.prunes), loopWall.Seconds())

	if tr != nil {
		l := layerMetrics(tr, &fs.rebuilds, mallocs, pause, len(fs.prunes))
		self := tr.selfTimes()
		if p := self["cov.maybe_prune"]; p != nil {
			l.set("cov.prune_other_ms", float64(p.self)/float64(p.n)/1e6, p.n)
		}
		if c := self["fuzz.campaign"]; c != nil {
			l.set("fuzz.driver_pct", 100*ratio(float64(c.self), float64(c.total)), c.n)
		}
		l.set("vm.cycles", ratio(float64(fs.cycles), float64(fs.execs)), fs.execs)
		l.set("cov.active_probes", ratio(float64(fs.activeSum), float64(fs.execs)), fs.execs)
		l.set("core.new_ms", newMS/float64(rounds), rounds)
		l.set("core.buildall_ms", buildMS/float64(rounds), rounds)
		rep.layers = l
	}
	return rep, nil
}

// campaignSeed derives the fuzzer seed of one (round, program) campaign.
func campaignSeed(seed uint64, round, prog int) uint64 {
	r := rand.New(rand.NewPCG(seed, uint64(round)<<16|uint64(prog)))
	return r.Uint64()
}

// campaignTimes is what one campaign adds to the pass totals.
type campaignTimes struct {
	wall           time.Duration
	newMS, buildMS float64
}

// campaign runs one program's campaign from a cold cov.New. In the first
// round it then checks the final image against a cold build with the same
// probes, and a sample of inputs against the interpreter. setup, when
// non-nil, accumulates the cov.New time.
func campaign(prof progen.Profile, iters int, seed uint64, rep *report, tr *tracer, fs *fuzzStats, setup *time.Duration) (campaignTimes, error) {
	var ct campaignTimes
	m := prof.Generate()
	runtime.GC() // no garbage from the previous campaign is collected on this one's clock
	t0 := time.Now()
	tool, err := cov.New(m, core.Options{Variant: core.VariantOdin}, true)
	newDur := time.Since(t0)
	if err != nil {
		return ct, fmt.Errorf("cov.New: %w", err)
	}
	defer tool.Engine.Close()
	if setup != nil {
		*setup += newDur
	}
	build := tool.Rebuilds[0].Total
	ct.newMS, ct.buildMS = msOf(newDur-build), msOf(build)

	c := &pruneTarget{tool: tool, prog: prof.Name, rep: rep, tr: tr, fs: fs,
		active: len(tool.Probes), committed: make([]bool, len(tool.Probes))}
	for i := range c.committed {
		c.committed[i] = true
	}
	f := fuzz.New(c, fuzz.Options{
		Seed:       seed,
		MaxLen:     32,
		Seeds:      [][]byte{{0x42, 0, 0, 0}, []byte("fuzzing seed")},
		Dictionary: [][]byte{{0x42, 0x55, 0x47}},
	})
	c.root = tr.begin("fuzz.campaign", -1, 0)
	t1 := time.Now()
	stats, err := f.Run(iters)
	ct.wall = time.Since(t1)
	tr.end(c.root)
	if err != nil {
		return ct, err
	}
	fs.execs += stats.Execs
	fs.cycles += stats.TotalCycles
	fs.wall += ct.wall
	// Reads of probe state, off the campaign's clock: a fixed sample per
	// campaign to time the read path, not a model of how often a caller
	// polls (odin-fuzz reads it once, at the end of a campaign).
	for k := 0; k < probeReads; k++ {
		sp := tr.begin("probe.read", -1, 0)
		t0 := time.Now()
		_ = tool.ActiveProbes()
		fs.reads = append(fs.reads, time.Since(t0))
		tr.end(sp)
	}
	if !fs.firstRound {
		return ct, nil
	}
	fs.heapMB += liveHeapMB()

	// Verdict 1: the image equals a cold build with the committed probes.
	ref := prof.Generate()
	var probes []core.Probe
	i := 0
	for _, fn := range ref.Funcs {
		if fn.IsDecl() {
			continue
		}
		for _, b := range fn.Blocks {
			if i < len(c.committed) && c.committed[i] {
				probes = append(probes, &cov.BlockProbe{ID: int64(i), FuncName: fn.Name, Block: b})
			}
			i++
		}
	}
	cold, err := coldImage(ref, []string{cov.HitHook}, probes)
	switch {
	case err != nil:
		rep.mismatch(prof.Name, "cold-build", err.Error())
	case i != len(c.committed):
		rep.mismatch(prof.Name, "image", fmt.Sprintf("cold module has %d blocks, tool %d", i, len(c.committed)))
	case !sameImage(tool.Executable(), cold):
		rep.mismatch(prof.Name, "image", "incrementally rebuilt image differs from a cold build with the same probes")
	}
	// Verdict 2: a seeded sample of corpus inputs runs identically on the VM
	// and in the interpreter.
	checkSample(rep, prof.Name, tool.Engine.Pristine, tool.Executable(), []string{cov.HitHook}, f.CorpusBytes(), seed)
	return ct, nil
}
