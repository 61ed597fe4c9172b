package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"odin/internal/core"
	"odin/internal/ir"
	"odin/internal/persist"
	"odin/internal/progen"
	"odin/internal/telemetry"
)

// ErrShardDead reports that the shard exhausted its recovery ladder —
// restarts, then hot-spare promotion — and was marked dead. Requests fail
// fast with 503 + Retry-After until an operator restarts the process.
var ErrShardDead = errors.New("serve: shard dead (recovery ladder exhausted)")

// deadRetryAfter is the Retry-After a dead shard advertises. Recovery needs
// an operator, so the interval is long — its job is only to stop retry
// storms, not to promise recovery.
const deadRetryAfter = 30 * time.Second

// ShardSpec configures one engine shard: a program hosted behind its own
// supervisor with its own persistent cache, so shards fail, warm-start, and
// trip breakers independently.
type ShardSpec struct {
	// Name identifies the shard in routes, metrics labels, and the persist
	// layout. Required, must be path-safe (persist.ShardLayout enforces it).
	Name string
	// Program names a progen suite profile to generate the hosted module
	// from. Ignored when Module is set.
	Program string
	// Module hosts an explicit IR module instead of a generated profile.
	Module *ir.Module
	// CacheDir, SnapshotPath, and JournalPath place the shard's persist
	// tier. Normally derived from the server's DataDir via
	// persist.ShardLayout; explicit values override. Empty means no
	// persistence (and no journal: probe state dies with the engine).
	CacheDir     string
	SnapshotPath string
	JournalPath  string
	// Workers sets the shard engine's compile pool size (0 = engine
	// default).
	Workers int
	// QueueDepth bounds the shard supervisor's admission queue (0 =
	// supervisor default).
	QueueDepth int
	// Replicas is the number of hot-spare standby engines kept booted warm
	// and read-only from the shard's persist cache. A spare holds no
	// probes: promotion replays the probe ledger onto it, exactly as a
	// restart does onto a fresh boot, so a spare saves the boot build. Only
	// 0 and 1 are meaningful today; larger values clamp to 1.
	Replicas int
	// FaultHook threads a fault-injection hook into the writer engine
	// instances this shard boots (the serving primary and its restarts) —
	// the chaos-drill substrate (internal/faultinject sites, e.g.
	// supervisor:commit). Read-only hot spares run clean: a one-shot
	// injected fault must wedge the primary deterministically, not race
	// into the standby that is supposed to rescue it.
	FaultHook func(site string) error
	// Watchdog tunes the shard's health watchdog and recovery ladder.
	Watchdog WatchdogOptions
}

// engineSlot is one live engine + supervisor instance. The shard serves
// from exactly one slot at a time; lifecycle recovery swaps the whole slot
// atomically (restart in place, or hot-spare promotion).
type engineSlot struct {
	eng *core.Engine
	sup *core.Supervisor
	// warmHits is the persist-tier hit count observed right after the boot
	// build — warm-start evidence, frozen so later traffic doesn't dilute
	// it.
	warmHits uint64
	// readOnly marks a slot whose persist tier is read-only: a promoted
	// spare keeps serving from the primary's cache without ever taking
	// the writer lock. Commits stop being persisted until the next process
	// restart; correctness is unaffected.
	readOnly bool
	// booted is when the slot went live.
	booted time.Time
	// gen is the slot's installation generation (assigned when the slot
	// becomes the serving slot). Probe records carry the generation of the
	// slot they are registered on, so a request can tell whether the
	// current slot knows the probe at all.
	gen int64
}

// shard is one hosted program: a swappable engine slot plus the stable
// serve-level state that survives engine instances — the probe ledger, the
// tenant-probe journal, the telemetry registry, and the lifecycle manager.
type shard struct {
	name    string
	program string
	spec    ShardSpec
	// module is the pristine hosted module, retained (never adopted by an
	// engine) so restarts and spares can boot new engines from it.
	module *ir.Module
	// reg is the shard's telemetry registry, shared by every engine
	// instance: handles are reused and gauge functions rebind on restart,
	// so fleet aggregation stays attached across failovers.
	reg *telemetry.Registry
	// funcs lists the instrumentable (defined, non-empty) functions of the
	// hosted module, so clients can discover probe targets.
	funcs []string
	// site allocates shard-unique hit-site IDs for counter probes; nextID
	// allocates serve-level probe IDs, which — unlike engine probe IDs —
	// are stable across engine restarts and promotions.
	site   atomic.Int64
	nextID atomic.Int64

	journal *probeJournal

	// mu guards the slot machinery (slot, swapping, gate, deadErr), the
	// probe ledger, the per-probe op locks, and the hot spare.
	mu       sync.Mutex
	slot     *engineSlot
	slotGen  int64
	swapping bool
	gate     chan struct{}
	deadErr  error
	probes   map[int64]*probeRec
	opLocks  map[int64]*sync.Mutex
	// spare is the booted, probe-less hot spare promotion takes (nil when
	// Replicas is 0 or the spare is still booting). closed stops a spare
	// that finishes booting after shutdown from being stood by.
	spare  *engineSlot
	closed bool

	lc      *lifecycle
	metrics *shardMetrics
}

// probeRec is the control plane's per-probe bookkeeping, keyed by the
// serve-level probe ID. Records are never deleted: a removed probe stays
// re-enableable by its serve ID. EngID is the probe's ID on the slot of
// generation gen. Replay registers only active probes on a new slot, so an
// inactive probe's gen usually trails the serving slot's; its next enable
// registers it afresh.
type probeRec struct {
	Tenant string
	Spec   ProbeSpec
	EngID  int
	Active bool
	// gen is the generation of the slot EngID is valid on.
	gen int64
}

// bootEngine builds one engine + supervisor over the shard's module and
// runs the boot build. readOnly engines never take the persist writer lock
// and never write snapshots — the hot-spare mode.
func (sh *shard) bootEngine(ctx context.Context, readOnly bool) (*engineSlot, error) {
	// Spares don't get the fault hook (see ShardSpec.FaultHook): chaos
	// faults target the writer so a drill wedges the serving slot, never
	// the standby meant to replace it.
	hook := sh.spec.FaultHook
	if readOnly {
		hook = nil
	}
	eng, err := core.New(sh.module, core.Options{
		Telemetry:     sh.reg,
		ExtraBuiltins: []string{HitBuiltin},
		Workers:       sh.spec.Workers,
		CacheDir:      sh.spec.CacheDir,
		SnapshotPath:  sh.spec.SnapshotPath,
		CacheReadOnly: readOnly,
		FaultHook:     hook,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: shard %s: %w", sh.name, err)
	}
	sup := core.Supervise(eng, core.SupervisorOptions{QueueDepth: sh.spec.QueueDepth})
	// Boot build through the supervisor so the image exists (and the warm
	// cache is consulted) before the slot takes traffic.
	tk, err := sup.SyncCtx(ctx)
	if err == nil {
		var res core.TicketResult
		if res, err = tk.Wait(ctx); err == nil {
			err = res.Err
		}
	}
	if err != nil {
		sup.Close()
		eng.Close()
		return nil, fmt.Errorf("serve: shard %s boot build: %w", sh.name, err)
	}
	slot := &engineSlot{eng: eng, sup: sup, readOnly: readOnly, booted: time.Now()}
	if ps, ok := eng.PersistStats(); ok {
		slot.warmHits = ps.Hits
		if !readOnly {
			slot.readOnly = ps.ReadOnly
		}
	}
	return slot, nil
}

// close tears the slot's supervisor and engine down without draining.
func (slot *engineSlot) close() {
	slot.sup.Close()
	slot.eng.Close()
}

// bootSpare boots a read-only hot spare and stands it by as sh.spare. The
// spare holds no probes and runs nothing beyond its idle supervisor;
// promotion replays the ledger onto it. A failed boot is counted: the shard
// keeps serving, and its ladder skips from restarts to dead.
func (sh *shard) bootSpare() {
	ctx, cancel := ctxTimeout(sh.spec.Watchdog.BootTimeout)
	defer cancel()
	slot, err := sh.bootEngine(ctx, true)
	if err != nil {
		sh.metrics.replicaFailures.Inc()
		return
	}
	sh.mu.Lock()
	if sh.deadErr == nil && !sh.closed && sh.spare == nil {
		sh.spare, slot = slot, nil
	}
	sh.mu.Unlock()
	if slot != nil {
		slot.close()
	}
}

// takeSpare detaches the hot spare for promotion (failover's next).
func (sh *shard) takeSpare(context.Context) (*engineSlot, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot := sh.spare
	sh.spare = nil
	if slot == nil {
		return nil, fmt.Errorf("serve: shard %s: no hot spare", sh.name)
	}
	return slot, nil
}

// replayInto registers and activates the active probes among reduced
// journal states on a fresh slot, returning the serve-ID → engine-ID
// mapping. Inactive probes are skipped: their first enable registers them
// (see handleProbeAction), so replay costs what the active set costs, not
// the shard's whole probe history. States arrive in ascending serve-ID
// order, so engine IDs (and with them the order Schedule splices probes
// that share a function) come out the same after every replay. Activation
// goes through the slot's supervisor, coalesced into as few generations as
// the queue allows. Individual failures (a poison probe re-quarantining
// itself) are tolerated — the probe stays registered, just not active.
func replayInto(ctx context.Context, slot *engineSlot, states []probeState, site *atomic.Int64) (map[int64]int, error) {
	engIDs := map[int64]int{}
	var ids []int64
	var tks []*core.Ticket
	for _, st := range states {
		if !st.Active {
			continue
		}
		engID, tk, err := slot.sup.AddProbeCtx(ctx, buildProbe(st.Spec, site.Add(1)))
		if err != nil {
			return nil, fmt.Errorf("replay add probe %d: %w", st.ID, err)
		}
		engIDs[st.ID] = engID
		ids, tks = append(ids, st.ID), append(tks, tk)
	}
	for i, tk := range tks {
		if _, err := tk.Wait(ctx); err != nil {
			return nil, fmt.Errorf("replay probe %d: %w", ids[i], err)
		}
	}
	return engIDs, nil
}

// newShard builds the shard's first engine slot, replays the tenant-probe
// journal so probes survive process restarts, boots the configured hot
// spare, and starts the health watchdog.
func newShard(spec ShardSpec) (*shard, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("serve: shard needs a name")
	}
	m := spec.Module
	program := spec.Program
	if m == nil {
		prof, ok := progen.ByName(spec.Program)
		if !ok {
			return nil, fmt.Errorf("serve: shard %s: unknown program %q", spec.Name, spec.Program)
		}
		m = prof.Generate()
		program = prof.Name
	}
	spec.Watchdog = spec.Watchdog.withDefaults()
	sh := &shard{
		name:    spec.Name,
		program: program,
		spec:    spec,
		module:  m,
		reg:     telemetry.NewRegistry(),
		probes:  map[int64]*probeRec{},
		opLocks: map[int64]*sync.Mutex{},
	}
	sh.metrics = newShardMetrics(sh.reg)
	for _, f := range m.Funcs {
		if !f.IsDecl() && len(f.Blocks) > 0 {
			sh.funcs = append(sh.funcs, f.Name)
		}
	}

	var replayOps []journalOp
	if spec.JournalPath != "" {
		j, ops, err := openProbeJournal(spec.JournalPath, spec.FaultHook)
		if err != nil {
			// A broken journal must not keep the shard down: serve without
			// one (probe state won't survive the next restart) and count it.
			sh.metrics.journalFallbacks.Inc()
		} else {
			sh.journal = j
			replayOps = ops
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), spec.Watchdog.BootTimeout)
	defer cancel()
	slot, err := sh.bootEngine(ctx, false)
	if err != nil {
		sh.journal.close()
		return nil, err
	}
	if states := reduceJournal(replayOps); len(states) > 0 {
		engIDs, rerr := replayInto(ctx, slot, states, &sh.site)
		if rerr != nil {
			slot.close()
			sh.journal.close()
			return nil, fmt.Errorf("serve: shard %s journal replay: %w", spec.Name, rerr)
		}
		for _, st := range states {
			rec := &probeRec{Tenant: st.Tenant, Spec: st.Spec, Active: st.Active}
			if engID, ok := engIDs[st.ID]; ok {
				rec.EngID, rec.gen = engID, 1
			}
			sh.probes[st.ID] = rec
			if st.ID > sh.nextID.Load() {
				sh.nextID.Store(st.ID)
			}
		}
	}
	sh.slotGen = 1
	slot.gen = 1
	sh.slot = slot

	if spec.Replicas > 0 {
		sh.bootSpare()
	}

	sh.lc = newLifecycle(sh, spec.Watchdog)
	return sh, nil
}

// current returns the serving slot without parking (nil while a swap is in
// flight with no slot installed). Introspection paths use it.
func (sh *shard) current() *engineSlot {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.slot
}

// acquire returns the serving slot, parking the caller while a failover
// swap is in flight: requests arriving during the window wait for the swap
// to complete (bounded by their own ctx) and are then re-admitted against
// the new slot — never dropped. A dead shard fails fast with ErrShardDead.
func (sh *shard) acquire(ctx context.Context) (*engineSlot, error) {
	parked := false
	for {
		sh.mu.Lock()
		if sh.deadErr != nil {
			err := sh.deadErr
			sh.mu.Unlock()
			return nil, err
		}
		if !sh.swapping && sh.slot != nil {
			slot := sh.slot
			sh.mu.Unlock()
			return slot, nil
		}
		gate := sh.gate
		sh.mu.Unlock()
		if !parked {
			parked = true
			sh.metrics.parked.Inc()
		}
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// stale reports whether slot is no longer the serving slot (a swap started
// or completed since the caller acquired it) — the signal to park and
// re-admit instead of failing a request that hit ErrSupervisorClosed.
func (sh *shard) stale(slot *engineSlot) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.swapping || sh.slot != slot
}

// beginSwap closes the admission gate: acquire parks until endSwap.
func (sh *shard) beginSwap() {
	sh.mu.Lock()
	sh.swapping = true
	sh.gate = make(chan struct{})
	sh.mu.Unlock()
}

// endSwap installs the new slot (nil keeps the old one, e.g. a failed
// recovery that will retry) and reopens the gate. engIDs is the serve-ID →
// engine-ID mapping the swap's replay produced; the ledger is rewritten to
// it under the same lock that installs the slot. Ops that committed on the
// old slot during the window are converged onto the new one by their own
// requests (see committed).
func (sh *shard) endSwap(slot *engineSlot, engIDs map[int64]int) {
	sh.mu.Lock()
	if slot != nil {
		sh.slotGen++
		slot.gen = sh.slotGen
		for id, engID := range engIDs {
			if rec := sh.probes[id]; rec != nil {
				rec.EngID = engID
				rec.gen = sh.slotGen
			}
		}
		sh.slot = slot
	}
	sh.swapping = false
	if sh.gate != nil {
		close(sh.gate)
		sh.gate = nil
	}
	sh.mu.Unlock()
}

// markDead records the terminal rung of the recovery ladder and unparks
// every waiter into the dead-shard fast path.
func (sh *shard) markDead(cause error) {
	sh.mu.Lock()
	sh.deadErr = fmt.Errorf("%w: %v", ErrShardDead, cause)
	sh.swapping = false
	if sh.gate != nil {
		close(sh.gate)
		sh.gate = nil
	}
	sh.mu.Unlock()
}

// nextProbeID allocates a serve-level probe ID.
func (sh *shard) nextProbeID() int64 { return sh.nextID.Add(1) }

// lockProbe serializes the ops on one probe: a request holds the probe's
// lock from submission through its ledger update and its convergence onto
// a swapped-in slot (committed), so the engine and the ledger see one
// probe's ops in the same order. Returns the unlock.
func (sh *shard) lockProbe(id int64) func() {
	sh.mu.Lock()
	mu := sh.opLocks[id]
	if mu == nil {
		mu = new(sync.Mutex)
		sh.opLocks[id] = mu
	}
	sh.mu.Unlock()
	mu.Lock()
	return mu.Unlock
}

// record remembers a freshly admitted probe before its activation commits,
// so quarantine attribution works even when the activation fails. slot is
// the slot the probe was registered on.
func (sh *shard) record(slot *engineSlot, id int64, engID int, tenant string, spec ProbeSpec) {
	sh.mu.Lock()
	sh.probes[id] = &probeRec{Tenant: tenant, Spec: spec, EngID: engID, gen: slot.gen}
	sh.mu.Unlock()
}

// bind points an existing record at engID, its registration on slot.
func (sh *shard) bind(slot *engineSlot, id int64, engID int) {
	sh.mu.Lock()
	if rec := sh.probes[id]; rec != nil {
		rec.EngID, rec.gen = engID, slot.gen
	}
	sh.mu.Unlock()
}

// lookupProbe resolves a serve-level probe ID to its record (copy).
func (sh *shard) lookupProbe(id int64) (probeRec, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.probes[id]
	if !ok {
		return probeRec{}, false
	}
	return *rec, true
}

// committed journals one committed probe op and updates the ledger. slot is
// the slot the op committed on. If a failover is swapping that slot out (or
// already has), the caller waits for the swap to finish and converges the
// new slot with the ledger before it answers: the swap's replay may have
// read the ledger before the op committed. The caller holds the probe's
// lock, so no other op on the probe interleaves. The journal has the op
// first, so a crash before convergence is repaired by boot replay.
func (sh *shard) committed(slot *engineSlot, op journalOp) {
	sh.journal.append(op)
	sh.metrics.journalAppends.Inc()
	sh.mu.Lock()
	if rec := sh.probes[op.ID]; rec != nil {
		switch op.Op {
		case jopAdd, jopEnable:
			rec.Active = true
		case jopRemove:
			rec.Active = false
		}
	}
	for sh.swapping {
		gate := sh.gate
		sh.mu.Unlock()
		<-gate
		sh.mu.Lock()
	}
	cur := sh.slot
	dead := sh.deadErr != nil
	sh.mu.Unlock()
	if !dead && cur != nil && cur != slot {
		sh.converge(cur, op.ID)
	}
}

// converge brings slot in line with the ledger for one probe: it registers
// an active probe the slot does not know, and enables or removes a known
// one whose engine state disagrees with the ledger. Best-effort: a failure
// here (the slot itself being swapped out) leaves the ledger as the truth
// the next replay restores.
func (sh *shard) converge(slot *engineSlot, id int64) {
	ctx, cancel := ctxTimeout(time.Minute)
	defer cancel()
	rec, ok := sh.lookupProbe(id)
	if !ok {
		return
	}
	var tk *core.Ticket
	var err error
	switch {
	case rec.gen != slot.gen:
		if !rec.Active {
			return
		}
		var engID int
		if engID, tk, err = slot.sup.AddProbeCtx(ctx, buildProbe(rec.Spec, sh.site.Add(1))); err == nil {
			sh.bind(slot, id, engID)
		}
	case rec.Active == slot.eng.Manager.IsActive(rec.EngID):
		return
	case rec.Active:
		tk, err = slot.sup.EnableProbeCtx(ctx, rec.EngID)
	default:
		tk, err = slot.sup.RemoveProbeCtx(ctx, rec.EngID)
	}
	if err == nil {
		tk.Wait(ctx)
	}
}

// ledgerStates reduces the in-memory probe ledger to replayable states in
// ascending serve-ID order (the same shape and order a journal reduction
// yields) — what restart and promotion replay onto the incoming slot.
func (sh *shard) ledgerStates() []probeState {
	sh.mu.Lock()
	out := make([]probeState, 0, len(sh.probes))
	for id, rec := range sh.probes {
		out = append(out, probeState{ID: id, Tenant: rec.Tenant, Spec: rec.Spec, Active: rec.Active})
	}
	sh.mu.Unlock()
	sortStates(out)
	return out
}

// warmHits reports the serving slot's boot-time warm-hit count.
func (sh *shard) warmHits() uint64 {
	if slot := sh.current(); slot != nil {
		return slot.warmHits
	}
	return 0
}

// persistStats snapshots the serving slot's persist tier, nil when
// persistence is off or no slot is live.
func (sh *shard) persistStats() *persist.Stats {
	slot := sh.current()
	if slot == nil {
		return nil
	}
	ps, ok := slot.eng.PersistStats()
	if !ok {
		return nil
	}
	return &ps
}

// quickClose tears the shard down without draining — construction-failure
// cleanup.
func (sh *shard) quickClose() {
	if sh.lc != nil {
		sh.lc.stopWatchdog()
	}
	sh.mu.Lock()
	spare := sh.spare
	sh.spare = nil
	sh.closed = true
	slot := sh.slot
	sh.slot = nil
	sh.mu.Unlock()
	if spare != nil {
		spare.close()
	}
	if slot != nil {
		slot.close()
	}
	sh.journal.close()
}

// close stops the watchdog, closes the hot spare, drains the serving supervisor
// (bounded by ctx), and closes the engine. Draining rather than closing
// means already-admitted tickets still commit, and the supervisor snapshot
// lands before engine teardown. If ctx expires the drain keeps running in
// the background and the engine is deliberately left open — tearing it down
// under an active rebuild would race; the exiting process reclaims it.
func (sh *shard) close(ctx context.Context) error {
	if sh.lc != nil {
		sh.lc.stopWatchdog()
	}
	sh.mu.Lock()
	spare := sh.spare
	sh.spare = nil
	sh.closed = true
	slot := sh.slot
	sh.mu.Unlock()
	if spare != nil {
		spare.close()
	}
	defer sh.journal.close()
	if slot == nil {
		return nil
	}
	if err := slot.sup.Drain(ctx); err != nil {
		return err
	}
	slot.eng.Close()
	return nil
}
