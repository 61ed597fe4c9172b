package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"odin/internal/telemetry"
)

// The shard lifecycle manager makes a shard self-healing. A per-shard
// watchdog samples Supervisor.Health on an interval and classifies the
// shard; when it turns wedged the recovery ladder runs:
//
//  1. restart in place — boot a fresh engine warm from the persist
//     snapshot + object cache; retried with exponential backoff up to
//     RestartAttempts;
//  2. hot-spare promotion — take the standby engine that was booted warm
//     and read-only ahead of time;
//  3. dead — fail fast with 503 + Retry-After until an operator intervenes.
//
// Both recovery rungs are one primitive, failover: drain and close the old
// slot, replay the probe ledger onto the replacement, swap. They differ
// only in where the replacement comes from.
//
// Requests arriving during a swap park on the shard gate and re-admit
// against the new slot; they are delayed by the failover window, never
// dropped.

// ShardState is the watchdog's classification of a shard.
type ShardState int

const (
	// ShardHealthy: serving, breaker closed or only transiently open.
	ShardHealthy ShardState = iota
	// ShardDegraded: serving but impaired — breaker open past the grace
	// window.
	ShardDegraded
	// ShardWedged: not making progress (stuck queue, overrun generation,
	// loop panic, breaker pinned open); recovery ladder is about to run.
	ShardWedged
	// ShardRecovering: a restart or promotion is in flight.
	ShardRecovering
	// ShardDead: recovery ladder exhausted; terminal until operator action.
	ShardDead
)

func (s ShardState) String() string {
	switch s {
	case ShardHealthy:
		return "healthy"
	case ShardDegraded:
		return "degraded"
	case ShardWedged:
		return "wedged"
	case ShardRecovering:
		return "recovering"
	case ShardDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// WatchdogOptions tunes the health watchdog and recovery ladder.
type WatchdogOptions struct {
	// Interval between health samples. Default 500ms.
	Interval time.Duration
	// StuckQueueAge: a ticket queued longer than this with no generation
	// completing marks the shard wedged. Default 30s.
	StuckQueueAge time.Duration
	// GenDeadline: a single generation running longer than this marks the
	// shard wedged (the engine loop is stuck inside a rebuild). Default 60s.
	GenDeadline time.Duration
	// BreakerOpenGrace: breaker open longer than this is degraded. Default 5s.
	BreakerOpenGrace time.Duration
	// BreakerWedgeAfter: breaker open longer than this is wedged — backoff
	// is no longer converging. Default 30s.
	BreakerWedgeAfter time.Duration
	// RestartAttempts bounds restart-in-place tries before escalating to
	// promotion. 0 means the default (2); -1 skips restarts entirely and
	// goes straight to promotion.
	RestartAttempts int
	// RestartBackoff is the delay before the first restart retry, doubling
	// up to RestartMaxBackoff. Defaults 250ms / 5s.
	RestartBackoff    time.Duration
	RestartMaxBackoff time.Duration
	// DrainTimeout bounds how long a recovery waits for the old supervisor
	// to drain before abandoning it. Default 3s.
	DrainTimeout time.Duration
	// BootTimeout bounds a replacement engine's boot build (warm starts are
	// fast; a cold rebuild of a large module is not). Default 2m.
	BootTimeout time.Duration
	// Disable turns the watchdog off (tests drive recovery manually).
	Disable bool
}

func (o WatchdogOptions) withDefaults() WatchdogOptions {
	if o.Interval <= 0 {
		o.Interval = 500 * time.Millisecond
	}
	if o.StuckQueueAge <= 0 {
		o.StuckQueueAge = 30 * time.Second
	}
	if o.GenDeadline <= 0 {
		o.GenDeadline = 60 * time.Second
	}
	if o.BreakerOpenGrace <= 0 {
		o.BreakerOpenGrace = 5 * time.Second
	}
	if o.BreakerWedgeAfter <= 0 {
		o.BreakerWedgeAfter = 30 * time.Second
	}
	if o.RestartAttempts == 0 {
		o.RestartAttempts = 2
	}
	if o.RestartBackoff <= 0 {
		o.RestartBackoff = 250 * time.Millisecond
	}
	if o.RestartMaxBackoff <= 0 {
		o.RestartMaxBackoff = 5 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 3 * time.Second
	}
	if o.BootTimeout <= 0 {
		o.BootTimeout = 2 * time.Minute
	}
	return o
}

// FailoverEvent records one completed recovery action.
type FailoverEvent struct {
	// Kind is "restart" or "promotion".
	Kind string `json:"kind"`
	// DurationMS is the unavailability window: beginSwap to endSwap.
	DurationMS float64 `json:"duration_ms"`
	// At is when the event completed (unix seconds).
	At int64 `json:"at"`
	// Cause is the health condition that triggered the ladder.
	Cause string `json:"cause"`
}

// maxFailoverEvents bounds the per-shard event ring.
const maxFailoverEvents = 32

// Serve-layer lifecycle metric families (per-shard registries).
const (
	MetricShardState       = "odin_serve_shard_state"
	MetricRestarts         = "odin_serve_restarts_total"
	MetricPromotions       = "odin_serve_promotions_total"
	MetricFailoverSeconds  = "odin_serve_failover_seconds"
	MetricParked           = "odin_serve_parked_total"
	MetricJournalAppends   = "odin_serve_journal_appends_total"
	MetricJournalFallbacks = "odin_serve_journal_fallbacks_total"
	MetricReplicaFailures  = "odin_serve_replica_failures_total"
)

// shardMetrics holds the lifecycle metric handles on the shard registry.
// The registry is reused across engine instances, so these accumulate
// across restarts and promotions.
type shardMetrics struct {
	restarts         *telemetry.Counter
	promotions       *telemetry.Counter
	failoverSeconds  *telemetry.Histogram
	parked           *telemetry.Counter
	journalAppends   *telemetry.Counter
	journalFallbacks *telemetry.Counter
	replicaFailures  *telemetry.Counter
}

func newShardMetrics(reg *telemetry.Registry) *shardMetrics {
	reg.Describe(MetricShardState, "Watchdog classification of the shard (0 healthy .. 4 dead).")
	reg.Describe(MetricRestarts, "Engine restarts in place performed by the recovery ladder.")
	reg.Describe(MetricPromotions, "Hot-spare promotions performed by the recovery ladder.")
	reg.Describe(MetricFailoverSeconds, "Unavailability window of each failover swap.")
	reg.Describe(MetricParked, "Requests parked on the shard gate during a failover swap.")
	reg.Describe(MetricJournalAppends, "Probe operations appended to the tenant-probe journal.")
	reg.Describe(MetricJournalFallbacks, "Journal opens or appends abandoned after persistent failure.")
	reg.Describe(MetricReplicaFailures, "Hot-spare boot failures and failed promotions.")
	return &shardMetrics{
		restarts:         reg.Counter(MetricRestarts),
		promotions:       reg.Counter(MetricPromotions),
		failoverSeconds:  reg.Histogram(MetricFailoverSeconds, nil),
		parked:           reg.Counter(MetricParked),
		journalAppends:   reg.Counter(MetricJournalAppends),
		journalFallbacks: reg.Counter(MetricJournalFallbacks),
		replicaFailures:  reg.Counter(MetricReplicaFailures),
	}
}

// lifecycle is the per-shard health watchdog + recovery ladder.
type lifecycle struct {
	sh   *shard
	opts WatchdogOptions

	mu           sync.Mutex
	state        ShardState
	cause        string
	restartsUsed int
	lastPanics   uint64
	events       []FailoverEvent
	recovering   bool

	stopOnce sync.Once
	stopCh   chan struct{}
	done     chan struct{}
}

func newLifecycle(sh *shard, opts WatchdogOptions) *lifecycle {
	lc := &lifecycle{
		sh:     sh,
		opts:   opts,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	// The state gauge rebinds nothing on restart: it reads lc, which
	// outlives every engine instance.
	sh.reg.GaugeFunc(MetricShardState, func() int64 { return int64(lc.State()) })
	if opts.Disable {
		close(lc.done)
		return lc
	}
	go lc.watch()
	return lc
}

func (lc *lifecycle) stopWatchdog() {
	lc.stopOnce.Do(func() { close(lc.stopCh) })
	<-lc.done
}

// State returns the current classification.
func (lc *lifecycle) State() ShardState {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.state
}

// Events returns a copy of the failover event ring, newest last.
func (lc *lifecycle) Events() []FailoverEvent {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	out := make([]FailoverEvent, len(lc.events))
	copy(out, lc.events)
	return out
}

func (lc *lifecycle) recordEvent(ev FailoverEvent) {
	lc.mu.Lock()
	lc.events = append(lc.events, ev)
	if len(lc.events) > maxFailoverEvents {
		lc.events = lc.events[len(lc.events)-maxFailoverEvents:]
	}
	lc.mu.Unlock()
}

func (lc *lifecycle) watch() {
	defer close(lc.done)
	tick := time.NewTicker(lc.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-lc.stopCh:
			return
		case <-tick.C:
		}
		if lc.State() == ShardDead {
			return
		}
		state, cause := lc.classify()
		lc.mu.Lock()
		if lc.recovering {
			lc.mu.Unlock()
			continue
		}
		lc.state = state
		lc.cause = cause
		wedged := state == ShardWedged
		if wedged {
			lc.state = ShardRecovering
			lc.recovering = true
		}
		lc.mu.Unlock()
		if wedged {
			lc.runLadder(cause)
		}
	}
}

// classify samples the serving supervisor's health and maps it to a shard
// state. The panic counter is compared against the last sample so a single
// loop panic (recovered, batch failed, breaker tripped) wedges the shard at
// most once per occurrence.
func (lc *lifecycle) classify() (ShardState, string) {
	slot := lc.sh.current()
	if slot == nil {
		return ShardWedged, "no serving slot"
	}
	h := slot.sup.Health()
	lc.mu.Lock()
	lastPanics := lc.lastPanics
	lc.lastPanics = h.LoopPanics
	lc.mu.Unlock()
	switch {
	case h.LoopPanics > lastPanics:
		return ShardWedged, fmt.Sprintf("engine loop panicked (%d total)", h.LoopPanics)
	case h.GenInFlight && h.GenRunningFor > lc.opts.GenDeadline:
		return ShardWedged, fmt.Sprintf("generation running %s (deadline %s)", h.GenRunningFor.Round(time.Millisecond), lc.opts.GenDeadline)
	case h.OldestQueuedAge > lc.opts.StuckQueueAge:
		return ShardWedged, fmt.Sprintf("ticket queued %s (limit %s)", h.OldestQueuedAge.Round(time.Millisecond), lc.opts.StuckQueueAge)
	case h.Breaker == "open" && h.BreakerOpenFor > lc.opts.BreakerWedgeAfter:
		return ShardWedged, fmt.Sprintf("breaker open %s (limit %s)", h.BreakerOpenFor.Round(time.Millisecond), lc.opts.BreakerWedgeAfter)
	case h.Breaker == "open" && h.BreakerOpenFor > lc.opts.BreakerOpenGrace:
		return ShardDegraded, fmt.Sprintf("breaker open %s", h.BreakerOpenFor.Round(time.Millisecond))
	}
	return ShardHealthy, ""
}

// runLadder executes the recovery ladder for one wedge event: bounded
// restarts in place with exponential backoff, then hot-spare promotion,
// then dead.
func (lc *lifecycle) runLadder(cause string) {
	defer func() {
		lc.mu.Lock()
		lc.recovering = false
		if lc.state == ShardRecovering {
			lc.state = ShardHealthy
		}
		lc.mu.Unlock()
	}()

	sh := lc.sh
	restart := func(ctx context.Context) (*engineSlot, error) { return sh.bootEngine(ctx, false) }
	backoff := lc.opts.RestartBackoff
	for attempt := 0; attempt < lc.opts.RestartAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-lc.stopCh:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > lc.opts.RestartMaxBackoff {
				backoff = lc.opts.RestartMaxBackoff
			}
		}
		if err := lc.failover(kindRestart, cause, restart); err == nil {
			lc.mu.Lock()
			lc.restartsUsed = 0
			lc.mu.Unlock()
			return
		}
	}
	if sh.spec.Replicas > 0 {
		if err := lc.failover(kindPromotion, cause, sh.takeSpare); err == nil {
			// Boot the replacement spare off the critical path. The promoted
			// slot serves read-only from the old primary's persist tier, and
			// spares stay read-only too: nothing contends for the writer
			// lock after a promotion.
			go sh.bootSpare()
			return
		}
		sh.metrics.replicaFailures.Inc()
	}
	sh.markDead(fmt.Errorf("%s; restarts and promotion failed", cause))
	lc.mu.Lock()
	lc.state = ShardDead
	lc.mu.Unlock()
}

// Failover kinds, as recorded in FailoverEvent.Kind.
const (
	kindRestart   = "restart"
	kindPromotion = "promotion"
)

// failover is the one recovery primitive behind both rungs of the ladder.
// It closes the admission gate, drains the old slot (bounded) and closes
// it, takes a replacement slot from next, replays the probe ledger onto it,
// and swaps it in. A restart's next boots a fresh engine warm from the
// persist snapshot + cache; a promotion's next hands over the pre-booted
// hot spare, which saves only the boot build. Replay registers the active
// probes only, so its cost follows the active set, not the shard's age.
// An op that commits on the old slot during the window is converged onto
// the new slot by its own request before that request answers
// (shard.committed).
func (lc *lifecycle) failover(kind, cause string, next func(context.Context) (*engineSlot, error)) error {
	sh := lc.sh
	start := time.Now()
	sh.beginSwap()
	ok := false
	defer func() {
		if !ok {
			sh.endSwap(nil, nil)
		}
	}()

	if old := sh.current(); old != nil {
		drainCtx, cancel := ctxTimeout(lc.opts.DrainTimeout)
		// Best-effort drain: already-admitted work gets a chance to commit
		// (and feed the journal and ledger) before teardown. A wedged loop
		// won't drain; the timeout moves on.
		old.sup.Drain(drainCtx)
		cancel()
		// Engine.Close is safe against an in-flight rebuild; it saves the
		// snapshot and releases the persist writer lock so a restarted
		// engine can take it.
		old.eng.Close()
	}

	ctx, cancel := ctxTimeout(lc.opts.BootTimeout)
	defer cancel()
	slot, err := next(ctx)
	if err != nil {
		return err
	}
	engIDs, err := replayInto(ctx, slot, sh.ledgerStates(), &sh.site)
	if err != nil {
		slot.close()
		return err
	}
	sh.endSwap(slot, engIDs)
	ok = true

	d := time.Since(start)
	if kind == kindPromotion {
		sh.metrics.promotions.Inc()
	} else {
		sh.metrics.restarts.Inc()
	}
	sh.metrics.failoverSeconds.Observe(d)
	lc.recordEvent(FailoverEvent{Kind: kind, DurationMS: float64(d) / float64(time.Millisecond), At: time.Now().Unix(), Cause: cause})
	return nil
}

// ctxTimeout is context.WithTimeout from Background, for recovery paths
// that outlive any request.
func ctxTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
