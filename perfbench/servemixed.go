package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/progen"
	"odin/internal/serve"
)

// serve-mixed: an in-process odin-serve with two shards on a data dir — s0
// hosts sqlite, the largest rebuilds, s1 json, the cheapest. An open loop
// at serveRate requests per second sends over two keep-alive connections,
// one per tenant: three quarters writes (add, enable, remove, change of the
// tenant's own probes), one quarter reads (/v1/fleet and
// /v1/shards/{s}/functions). Each request is timed from when it was due.
// Set-up is a warm boot from a data dir that an untimed cold session of the
// same seed produced.
const (
	serveRate = 120.0
	// coldRequests is the length of the untimed cold session per tenant.
	coldRequests = 500
	// serveBoots is how many warm boots set-up makes; setup_s is their
	// median and the last one serves the timed loop.
	serveBoots = 9
	// serveMaxActive bounds a tenant's active probes per shard; adds keep
	// coming at that bound only after a remove, so the probe set turns over.
	serveMaxActive = 6
	serveTenants   = 2
	// serveVMInputs seeded inputs time the VM on each shard's probe set.
	serveVMInputs = 4096
)

var serveShards = []struct{ name, program string }{{"s0", "sqlite"}, {"s1", "json"}}

// serveProbe has the shape of the daemon's counter probe: a call to
// serve.HitBuiltin carrying the probe's site at the entry of its function.
// The daemon's own type is unexported, so this copy stands in for it when
// the tenants' final probe set is rebuilt outside the daemon.
type serveProbe struct {
	fn   string
	site int64
}

func (p *serveProbe) PatchTarget() string { return p.fn }

func (p *serveProbe) Instrument(s *core.Sched) error {
	f := s.MapFunc(p.fn)
	if f == nil {
		return fmt.Errorf("perfbench: %s not in recompilation", p.fn)
	}
	nb := f.Blocks[0]
	hook := s.LookupFunction(serve.HitBuiltin, &ir.FuncType{Params: []ir.Type{ir.I64}, Ret: ir.Void})
	b := ir.NewBuilder()
	b.SetInsertBefore(nb, len(nb.Phis()))
	b.Call(ir.Void, hook.Name, ir.Const(ir.I64, p.site))
	return nil
}

// tenantProbe is the generator's model of one of its probes.
type tenantProbe struct {
	id     int64
	fn     string
	active bool
}

// tenant is one generator connection: its identity, RNG and model.
type tenant struct {
	name   string
	client *serve.Client
	rng    *rand.Rand
	probes map[string][]*tenantProbe // by shard
	adds   map[string]*funcCycle
}

// request is one generated call; do performs it.
type request struct {
	write bool
	shard string
	kind  string // add, enable, remove, change, fleet, functions
	probe *tenantProbe
	fn    string
}

// next draws the tenant's next request from its RNG and model.
func (t *tenant) next() request {
	sh := serveShards[t.rng.IntN(len(serveShards))].name
	if t.rng.IntN(4) == 0 {
		if t.rng.IntN(2) == 0 {
			return request{kind: "fleet"}
		}
		return request{kind: "functions", shard: sh}
	}
	var active, inactive []*tenantProbe
	for _, p := range t.probes[sh] {
		if p.active {
			active = append(active, p)
		} else {
			inactive = append(inactive, p)
		}
	}
	var kinds []string
	if len(active) < serveMaxActive {
		kinds = append(kinds, "add")
		if len(inactive) > 0 {
			kinds = append(kinds, "enable")
		}
	}
	if len(active) > 0 {
		kinds = append(kinds, "remove", "change")
	}
	r := request{write: true, shard: sh, kind: kinds[t.rng.IntN(len(kinds))]}
	switch r.kind {
	case "add":
		r.fn = t.adds[sh].pick()
	case "enable":
		r.probe = inactive[t.rng.IntN(len(inactive))]
	default:
		r.probe = active[t.rng.IntN(len(active))]
	}
	return r
}

// do sends the request and, on success, applies it to the model.
func (t *tenant) do(r request) error {
	switch r.kind {
	case "fleet":
		_, err := t.client.Fleet()
		return err
	case "functions":
		_, err := t.client.Functions(r.shard)
		return err
	case "add":
		res, err := t.client.AddProbe(r.shard, serve.ProbeSpec{Func: r.fn})
		if err == nil {
			t.probes[r.shard] = append(t.probes[r.shard], &tenantProbe{id: res.ID, fn: r.fn, active: true})
		}
		return err
	}
	_, err := t.client.ProbeAction(r.shard, r.probe.id, r.kind)
	if err == nil && r.kind != "change" {
		r.probe.active = r.kind == "enable"
	}
	return err
}

// failClass names a failed request's class.
func failClass(err error) string {
	var ae *serve.APIError
	if errors.As(err, &ae) {
		return fmt.Sprintf("http %d %s", ae.Status, ae.Code)
	}
	return "transport"
}

// serveStats accumulates the timed loop.
type serveStats struct {
	mu            sync.Mutex
	writes, reads []time.Duration
	writeRTT      time.Duration
	readRTT       time.Duration
	wait          time.Duration
	late          time.Duration
}

func runServeMixed(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	dir, err := os.MkdirTemp(cfg.out, "serve-data-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Buckets generous enough for the closed-loop cold session: admission
	// runs on every request but sheds none.
	opts := serve.Options{DataDir: dir, Admission: serve.AdmissionOptions{TenantRPS: 2000, TenantBurst: 2000}}
	for _, s := range serveShards {
		opts.Shards = append(opts.Shards, serve.ShardSpec{Name: s.name, Program: s.program})
	}
	coldN, boots, vmN := coldRequests, serveBoots, serveVMInputs
	if cfg.tiny {
		coldN, boots, vmN = 6, 1, 64
	}

	// ≤2 keep-alive connections, one per tenant.
	transport := &http.Transport{MaxConnsPerHost: serveTenants, MaxIdleConnsPerHost: serveTenants}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Transport: transport, Timeout: time.Minute}
	tenants := make([]*tenant, serveTenants)
	for i := range tenants {
		tenants[i] = &tenant{
			name:   fmt.Sprintf("tenant%d", i),
			rng:    rand.New(rand.NewPCG(cfg.seed, 0x5e0+uint64(i))),
			probes: map[string][]*tenantProbe{},
			adds:   map[string]*funcCycle{},
		}
	}

	// Untimed cold session: boot on the empty data dir, run each tenant's
	// first requests closed-loop, shut down (drain, snapshot, journal).
	srv, base, err := startServer(opts)
	if err != nil {
		return nil, fmt.Errorf("cold boot: %w", err)
	}
	for _, t := range tenants {
		t.client = &serve.Client{Base: base, Tenant: t.name, HTTP: hc}
		for _, s := range serveShards {
			fs, err := t.client.Functions(s.name)
			if err != nil {
				stopServer(srv)
				return nil, err
			}
			t.adds[s.name] = newFuncCycle(fs, t.rng)
		}
		for i := 0; i < coldN; i++ {
			r := t.next()
			rep.attempted++
			if err := t.do(r); err != nil {
				rep.fail(r.shard+" cold", failClass(err))
				rep.example(failClass(err), err)
			}
		}
	}
	if err := stopServer(srv); err != nil {
		return nil, fmt.Errorf("cold session shutdown: %w", err)
	}
	transport.CloseIdleConnections()

	// Set-up: warm boots from the cold session's data dir.
	var bootS []float64
	for i := 0; i < boots; i++ {
		if i > 0 {
			if err := stopServer(srv); err != nil {
				return nil, err
			}
		}
		runtime.GC() // the previous boot's garbage is not collected on this one's clock
		t0 := time.Now()
		srv, err = serve.New(opts)
		if err != nil {
			return nil, fmt.Errorf("warm boot: %w", err)
		}
		bootS = append(bootS, time.Since(t0).Seconds())
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		stopServer(srv)
		return nil, err
	}
	base = "http://" + addr
	defer func() {
		if srv != nil {
			stopServer(srv)
		}
	}()
	for _, t := range tenants {
		t.client = &serve.Client{Base: base, Tenant: t.name, HTTP: hc}
	}
	bootFleet, err := tenants[0].client.Fleet()
	if err != nil {
		return nil, err
	}
	bootMetrics, err := scrape(tenants[0].client)
	if err != nil {
		return nil, err
	}

	// Warm-up: a few untimed requests per tenant, then a GC.
	for _, t := range tenants {
		for i := 0; i < 8; i++ {
			r := t.next()
			rep.attempted++
			if err := t.do(r); err != nil {
				rep.fail(r.shard+" warm-up", failClass(err))
			}
		}
	}
	before, err := scrape(tenants[0].client)
	if err != nil {
		return nil, err
	}

	// The timed open loop: request i is due at start + i/serveRate and
	// belongs to tenant i mod 2, so each tenant's requests — and its model —
	// stay in order on its own connection.
	total := int(serveRate * cfg.seconds)
	if cfg.tiny {
		total = 24
	}
	st := &serveStats{}
	mem := startMem()
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < total; i += serveTenants {
				due := start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				r := t.next()
				sent := time.Now()
				err := t.do(r)
				done := time.Now()
				st.observe(tr, r, due, sent, done, err, rep)
			}
		}()
	}
	wg.Wait()
	loopWall := time.Since(start)
	mallocs, pause := mem.stop()
	after, err := scrape(tenants[0].client)
	if err != nil {
		return nil, err
	}

	// Verdict: the fleet's active probes per shard equal the generators'
	// model.
	fleet, err := tenants[0].client.Fleet()
	if err != nil {
		return nil, err
	}
	for _, sh := range fleet.Shards {
		want := 0
		for _, t := range tenants {
			for _, p := range t.probes[sh.Name] {
				if p.active {
					want++
				}
			}
		}
		rep.attempted++
		if sh.ActiveProbes != want {
			rep.mismatch(sh.Name, "fleet-model", fmt.Sprintf("/v1/fleet active_probes %d, generator model %d", sh.ActiveProbes, want))
		}
	}
	heap := liveHeapMB()
	err = stopServer(srv)
	srv = nil
	if err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	// The execution cost of the probe set the tenants converged to, on a
	// cold build of each shard's program with probes of the daemon's shape
	// (the daemon does not expose shard images), cross-checked against the
	// interpreter. This measures core and the VM only: a change to the
	// daemon's own probes or shard engines cannot move it.
	var vmt execTotals
	for si, s := range serveShards {
		prof, _ := progen.ByName(s.program)
		var probes []core.Probe
		site := int64(0)
		for _, t := range tenants {
			for _, p := range t.probes[s.name] {
				if p.active {
					site++
					probes = append(probes, &serveProbe{fn: p.fn, site: site})
				}
			}
		}
		rep.attempted++
		hooks := []string{serve.HitBuiltin}
		exe, err := coldImage(prof.Generate(), hooks, probes)
		if err != nil {
			rep.mismatch(s.name, "cold-build", err.Error())
			continue
		}
		inputs := seededInputs(cfg.seed, si, vmN)
		checkSample(rep, s.name, prof.Generate(), exe, hooks, inputs, cfg.seed)
		vmt.add(timeVM(tr, exe, hooks, inputs))
	}

	ops := len(st.writes)
	rep.add("setup_s", medianf(bootS), "s", len(bootS))
	rep.add("execs_per_s", ratio(float64(vmt.n), vmt.dur.Seconds()), "1/s", vmt.n)
	rep.add("cycles_per_exec", ratio(float64(vmt.cycles), float64(vmt.n)), "cycles", vmt.n)
	rep.addLatencies("op", st.writes)
	rep.add("ops_per_s", ratio(float64(ops), loopWall.Seconds()), "1/s", ops)
	rep.addLatencies("read", st.reads)
	rep.addOK()
	rep.add("heap_mb", heap, "MB", 0)
	rep.opP50 = percentile(st.writes, 50)
	fmt.Printf("# serve-mixed: %d requests at %.0f/s over %d connections, %d cold-session requests, generator at most %.2f ms late\n",
		total, serveRate, serveTenants, coldN*serveTenants, msOf(st.late))

	if tr != nil {
		l := layerMetrics(tr, &rebuildAgg{}, mallocs, pause, ops+len(st.reads))
		l.set("vm.cycles", ratio(float64(vmt.cycles), float64(vmt.n)), vmt.n)
		l.set("http.write_rtt_ms", meanMS(st.writeRTT, ops), ops)
		l.set("http.read_rtt_ms", meanMS(st.readRTT, len(st.reads)), len(st.reads))
		l.set("gen.wait_ms", meanMS(st.wait, total), total)
		l.set("gen.late_ms", msOf(st.late), total)
		d := after.delta(before)
		ticket := d.meanMS("odin_supervisor_ticket_seconds")
		l.set("supervisor.ticket_ms", ticket, int(d["odin_supervisor_ticket_seconds_count"]))
		l.set("supervisor.queue_age_ms", d.meanMS("odin_supervisor_queue_age_seconds"), int(d["odin_supervisor_queue_age_seconds_count"]))
		l.set("supervisor.coalesce_x", ratio(d["odin_supervisor_requests"], d["odin_supervisor_generations"]), int(d["odin_supervisor_generations"]))
		l.set("serve.rebuild_ms", d.meanMS("odin_rebuild_seconds"), int(d["odin_rebuild_seconds_count"]))
		l.set("persist.store_ms", d.meanMS("odin_persist_store_seconds"), int(d["odin_persist_store_seconds_count"]))
		l.set("serve.journal_appends", d["odin_serve_journal_appends_total"], 0)
		l.set("serve.parked", d["odin_serve_parked_total"], 0)
		l.set("admission.shed", d["odin_serve_shed_total"], 0)
		l.set("serve.outside_ticket_ms", meanMS(st.writeRTT, ops)-ticket, ops)
		l.set("serve.boot_ms", 1000*medianf(bootS), len(bootS))
		var warmHits uint64
		records := 0
		for _, sh := range bootFleet.Shards {
			warmHits += sh.WarmHits
			records += sh.JournalRecords
		}
		l.set("persist.warm_hits", float64(warmHits), len(bootFleet.Shards))
		l.set("persist.load_ms", 1000*bootMetrics["odin_persist_load_seconds_sum"], int(bootMetrics["odin_persist_load_seconds_count"]))
		l.set("serve.journal_records", float64(records), len(bootFleet.Shards))
		rep.layers = l
	}
	return rep, nil
}

// observe records one timed request: its latency from due, the wait from
// due to sent, and the round trip, with spans for the traced run.
func (st *serveStats) observe(tr *tracer, r request, due, sent, done time.Time, err error, rep *report) {
	name, rtt := "serve.read", "http.read_rtt"
	if r.write {
		name, rtt = "serve.write", "http.write_rtt"
	}
	if tr != nil {
		op := tr.newOp()
		root := tr.record(name, -1, op, due, done)
		tr.record("gen.wait", root, op, due, sent)
		tr.record(rtt, root, op, sent, done)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rep.attempted++
	if err != nil {
		shard := r.shard
		if shard == "" {
			shard = "fleet"
		}
		rep.fail(shard, r.kind+": "+failClass(err))
		rep.example(failClass(err), err)
		return
	}
	lat, wait := done.Sub(due), sent.Sub(due)
	st.wait += wait
	if wait > st.late {
		st.late = wait
	}
	if r.write {
		st.writes = append(st.writes, lat)
		st.writeRTT += done.Sub(sent)
	} else {
		st.reads = append(st.reads, lat)
		st.readRTT += done.Sub(sent)
	}
}

func startServer(opts serve.Options) (*serve.Server, string, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, "", err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		stopServer(srv)
		return nil, "", err
	}
	return srv, "http://" + addr, nil
}

// stopServer drains every shard and closes the server.
func stopServer(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return srv.Close(ctx)
}

// promSample sums a Prometheus exposition by sample name across labels.
type promSample map[string]float64

// scrape fetches /metrics.
func scrape(c *serve.Client) (promSample, error) {
	text, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	out := promSample{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name, "_bucket{") {
				continue
			}
			name = name[:i]
		}
		if j := strings.LastIndexByte(line, ' '); j >= 0 {
			rest = line[j+1:]
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

func (p promSample) delta(before promSample) promSample {
	out := promSample{}
	for k, v := range p {
		out[k] = v - before[k]
	}
	return out
}

// meanMS is the mean of a histogram's observations in milliseconds.
func (p promSample) meanMS(hist string) float64 {
	return 1000 * ratio(p[hist+"_sum"], p[hist+"_count"])
}
