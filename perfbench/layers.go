package main

import (
	"time"

	"odin/internal/core"
)

// endToEnd lists the end-to-end metrics every untraced run prints, in
// order, with their units. BENCHMARK.json names the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"execs_per_s", "1/s"},
	{"cycles_per_exec", "cycles"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"ok_pct", "%"},
	{"heap_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run prints, in order,
// with their units. A layer a workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"vm.exec_us", "us"},
	{"vm.cycles", "cycles"},
	{"fuzz.driver_pct", "%"},
	{"cov.active_probes", "count"},
	{"cov.prune_other_ms", "ms"},
	{"patchmgr.op_us", "us"},
	{"core.schedule_ms", "ms"},
	{"core.rebuild_ms", "ms"},
	{"rebuild.materialize_ms", "ms"},
	{"rebuild.opt_ms", "ms"},
	{"rebuild.codegen_ms", "ms"},
	{"rebuild.compile_wall_ms", "ms"},
	{"rebuild.pool_util", "ratio"},
	{"rebuild.link_ms", "ms"},
	{"rebuild.incremental_link_pct", "%"},
	{"rebuild.other_ms", "ms"},
	{"rebuild.frags", "count"},
	{"rebuild.funcs_compiled", "count"},
	{"rebuild.func_cache_hit_pct", "%"},
	{"rebuild.frag_cache_hit_pct", "%"},
	{"rebuild.splice_fallbacks", "count"},
	{"rebuild.failed", "count"},
	{"go.allocs_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"core.new_ms", "ms"},
	{"core.buildall_ms", "ms"},
	{"http.write_rtt_ms", "ms"},
	{"http.read_rtt_ms", "ms"},
	{"gen.wait_ms", "ms"},
	{"gen.late_ms", "ms"},
	{"supervisor.ticket_ms", "ms"},
	{"supervisor.queue_age_ms", "ms"},
	{"supervisor.coalesce_x", "ratio"},
	{"serve.rebuild_ms", "ms"},
	{"persist.store_ms", "ms"},
	{"serve.journal_appends", "count"},
	{"serve.parked", "count"},
	{"admission.shed", "count"},
	{"serve.outside_ticket_ms", "ms"},
	{"serve.boot_ms", "ms"},
	{"persist.warm_hits", "count"},
	{"persist.load_ms", "ms"},
	{"serve.journal_records", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unaccounted_pct", "%"},
	{"trace.spans", "count"},
}

// layerSet holds per-layer values by name, with their sample counts.
type layerSet map[string]metric

func (l layerSet) set(name string, v float64, n int) { l[name] = metric{Name: name, Value: v, N: n} }

// rebuildAgg sums the RebuildStats of a pass's committed rebuilds.
type rebuildAgg struct {
	n, failed                                     int
	mat, opt, cg, wall, cpu, poolCap, link, other time.Duration
	frags, funcs, funcHits, fragHits, fallbacks   int
	incr                                          int
}

func (a *rebuildAgg) add(st *core.RebuildStats) {
	a.n++
	for _, fc := range st.Fragments {
		a.mat += fc.Materialize
		a.opt += fc.Opt
		a.cg += fc.CodeGen
	}
	a.wall += st.CompileWall
	a.cpu += st.CompileCPU
	a.poolCap += st.CompileWall * time.Duration(st.Workers)
	a.link += st.LinkDur
	a.other += st.Total - st.CompileWall - st.LinkDur
	a.frags += len(st.Fragments)
	a.funcs += st.FuncsCompiled
	a.funcHits += st.FuncCacheHits
	a.fragHits += st.CacheHits
	a.fallbacks += st.SpliceFallbacks
	if st.IncrementalLink {
		a.incr++
	}
}

// layerMetrics derives the engine-side per-layer metrics shared by the
// fuzz-prune and probe-churn workloads: span self times of the VM, the
// patch manager, Schedule and Rebuild, the stage breakdown of the returned
// RebuildStats, and allocator figures over the timed loop.
func layerMetrics(tr *tracer, a *rebuildAgg, mallocs uint64, pause time.Duration, ops int) layerSet {
	l := layerSet{}
	self := tr.selfTimes()
	mean := func(name string, unit time.Duration, selfTime bool) (float64, int) {
		st := self[name]
		if st == nil || st.n == 0 {
			return 0, 0
		}
		t := st.total
		if selfTime {
			t = st.self
		}
		return float64(t) / float64(st.n) / float64(unit), st.n
	}
	v, n := mean("vm.exec", time.Microsecond, true)
	l.set("vm.exec_us", v, n)
	v, n = mean("patchmgr.op", time.Microsecond, true)
	l.set("patchmgr.op_us", v, n)
	v, n = mean("core.schedule", time.Millisecond, true)
	l.set("core.schedule_ms", v, n)
	v, n = mean("core.rebuild", time.Millisecond, false)
	l.set("core.rebuild_ms", v, n)

	nr := a.n
	l.set("rebuild.materialize_ms", meanMS(a.mat, nr), nr)
	l.set("rebuild.opt_ms", meanMS(a.opt, nr), nr)
	l.set("rebuild.codegen_ms", meanMS(a.cg, nr), nr)
	l.set("rebuild.compile_wall_ms", meanMS(a.wall, nr), nr)
	l.set("rebuild.pool_util", ratio(float64(a.cpu), float64(a.poolCap)), nr)
	l.set("rebuild.link_ms", meanMS(a.link, nr), nr)
	l.set("rebuild.incremental_link_pct", 100*ratio(float64(a.incr), float64(nr)), nr)
	l.set("rebuild.other_ms", meanMS(a.other, nr), nr)
	l.set("rebuild.frags", ratio(float64(a.frags), float64(nr)), nr)
	l.set("rebuild.funcs_compiled", ratio(float64(a.funcs), float64(nr)), nr)
	l.set("rebuild.func_cache_hit_pct", 100*ratio(float64(a.funcHits), float64(a.funcHits+a.funcs)), nr)
	l.set("rebuild.frag_cache_hit_pct", 100*ratio(float64(a.fragHits), float64(a.frags)), nr)
	l.set("rebuild.splice_fallbacks", float64(a.fallbacks), nr)
	l.set("rebuild.failed", float64(a.failed), nr+a.failed)
	l.set("go.allocs_per_op", ratio(float64(mallocs), float64(ops)), ops)
	l.set("go.gc_pause_ms", msOf(pause), 0)
	return l
}

// recordStages lays the stage durations st reports out as child spans of
// the rebuild span rb, back to back from at: compile, link, and the rest of
// Total (instrument, fingerprint, verify, commit). The engine reports
// durations, not timestamps, so the layout is positional; the sum check
// fails if the stages do not fit in rb.
func recordStages(tr *tracer, rb int32, op int64, at time.Time, st *core.RebuildStats) {
	if tr == nil {
		return
	}
	for _, stage := range []struct {
		name string
		d    time.Duration
	}{
		{"rebuild.compile", st.CompileWall},
		{"rebuild.link", st.LinkDur},
		{"rebuild.other", st.Total - st.CompileWall - st.LinkDur},
	} {
		tr.record(stage.name, rb, op, at, at.Add(stage.d))
		at = at.Add(stage.d)
	}
}
