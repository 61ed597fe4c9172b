package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"odin/internal/progen"
	"odin/internal/serve"
)

// ServeTenantResult is one tenant's row of the serve-storm experiment: its
// end-to-end ticket latency distribution (first attempt to commit, retries
// on shed/backpressure included) against a live odin-serve control plane.
type ServeTenantResult struct {
	Tenant string `json:"tenant"`
	// Arm is "baseline" (healthy tenants only) or "hostile" (same healthy
	// load plus a poison-probe tenant).
	Arm   string `json:"arm"`
	Shard string `json:"shard"`
	// Requests is the probe operations attempted; Committed of those
	// reached a committed generation; Dropped never did. Retries counts
	// extra attempts spent on shed/backpressure verdicts.
	Requests  int `json:"requests"`
	Committed int `json:"committed"`
	Dropped   int `json:"dropped"`
	Retries   int `json:"retries"`
	P50       time.Duration
	P99       time.Duration
	Max       time.Duration
}

// ServeStormSummary is the whole experiment: both arms' per-tenant rows and
// the hostile-tenant isolation verdict.
type ServeStormSummary struct {
	Programs          []string            `json:"programs"`
	HealthyTenants    int                 `json:"healthy_tenants"`
	RequestsPerTenant int                 `json:"requests_per_tenant"`
	Baseline          []ServeTenantResult `json:"baseline"`
	Hostile           []ServeTenantResult `json:"hostile"`
	// HealthyBaselineP99MS and HealthyHostileP99MS are the worst healthy
	// tenant's p99 in each arm; IsolationX is their ratio (hostile/baseline,
	// baseline clamped to a 1ms noise floor). The acceptance gate is
	// IsolationX <= ServeIsolationFactor with DroppedHealthy == 0.
	HealthyBaselineP99MS float64 `json:"healthy_baseline_p99_ms"`
	HealthyHostileP99MS  float64 `json:"healthy_hostile_p99_ms"`
	IsolationX           float64 `json:"isolation_x"`
	DroppedHealthy       int     `json:"dropped_healthy"`
	// HostileRequests/HostileShed describe how hard the hostile tenant
	// pushed and how often the admission ladder shed it.
	HostileRequests int           `json:"hostile_requests"`
	HostileShed     int           `json:"hostile_shed"`
	Wall            time.Duration `json:"wall"`
}

// ServeIsolationFactor is the acceptance bound on IsolationX: with a
// hostile tenant storming poison probes, healthy-tenant p99 must stay
// within this factor of the no-hostile baseline.
const ServeIsolationFactor = 2.0

// serveNoiseFloorMS clamps the baseline p99 when computing IsolationX so a
// sub-millisecond baseline doesn't turn scheduler jitter into a fake
// isolation failure.
const serveNoiseFloorMS = 1.0

// RunServeStorm boots a 2-shard control plane over loopback and storms it:
// the baseline arm runs `healthy` tenants of add/remove probe cycles
// (tenant i pinned to shard i%2, so both shards carry healthy load); the
// hostile arm repeats the identical healthy load while one extra tenant
// floods shard 0 with poison probes. Both arms use fresh engines, so the
// comparison is engine-state-fair.
func RunServeStorm(programs []string, healthy, perTenant int) (*ServeStormSummary, error) {
	if len(programs) != 2 {
		return nil, fmt.Errorf("bench: serve-storm wants exactly 2 programs, got %d", len(programs))
	}
	if healthy < 1 {
		healthy = 3
	}
	if perTenant < 1 {
		perTenant = 40
	}
	for _, p := range programs {
		if _, ok := progen.ByName(p); !ok {
			return nil, fmt.Errorf("bench: unknown suite program %q", p)
		}
	}
	sum := &ServeStormSummary{
		Programs:          programs,
		HealthyTenants:    healthy,
		RequestsPerTenant: perTenant,
	}
	t0 := time.Now()

	base, _, _, err := runServeArm(programs, healthy, perTenant, false)
	if err != nil {
		return nil, fmt.Errorf("bench: baseline arm: %w", err)
	}
	sum.Baseline = base

	host, hreq, hshed, err := runServeArm(programs, healthy, perTenant, true)
	if err != nil {
		return nil, fmt.Errorf("bench: hostile arm: %w", err)
	}
	sum.Hostile = host
	sum.HostileRequests = hreq
	sum.HostileShed = hshed
	sum.Wall = time.Since(t0)

	for _, r := range sum.Baseline {
		sum.HealthyBaselineP99MS = max(sum.HealthyBaselineP99MS, durMS(r.P99))
	}
	for _, r := range sum.Hostile {
		sum.HealthyHostileP99MS = max(sum.HealthyHostileP99MS, durMS(r.P99))
		sum.DroppedHealthy += r.Dropped
	}
	sum.IsolationX = sum.HealthyHostileP99MS / max(sum.HealthyBaselineP99MS, serveNoiseFloorMS)
	return sum, nil
}

// runServeArm boots a fresh daemon and runs one arm's workload, returning
// the healthy tenants' rows plus the hostile tenant's request/shed counts.
func runServeArm(programs []string, healthy, perTenant int, hostile bool) ([]ServeTenantResult, int, int, error) {
	srv, err := serve.New(serve.Options{
		Shards: []serve.ShardSpec{
			{Name: "s0", Program: programs[0]},
			{Name: "s1", Program: programs[1]},
		},
		Admission: serve.AdmissionOptions{
			// Generous rate limits: the experiment measures tail latency
			// under contention and hostile load, not bucket shaping.
			TenantRPS:   5000,
			TenantBurst: 1000,
			// Fast failure breaker so hostile containment is visible within
			// a short run.
			FailBackoff:    100 * time.Millisecond,
			FailMaxBackoff: 2 * time.Second,
		},
	})
	if err != nil {
		return nil, 0, 0, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Close(ctx)
		return nil, 0, 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Close(ctx)
	}()
	base := "http://" + addr

	arm := "baseline"
	if hostile {
		arm = "hostile"
	}
	shards := []string{"s0", "s1"}
	results := make([]ServeTenantResult, healthy)

	// Each shard's healthy tenants target distinct functions so the storm
	// contends on the control plane and supervisor, not probe semantics.
	funcsByShard := map[string][]string{}
	for _, sh := range shards {
		c := &serve.Client{Base: base}
		funcs, err := c.Functions(sh)
		if err != nil {
			return nil, 0, 0, err
		}
		if len(funcs) == 0 {
			return nil, 0, 0, fmt.Errorf("shard %s has no instrumentable functions", sh)
		}
		funcsByShard[sh] = funcs
	}

	done := make(chan struct{})
	var hostileWG sync.WaitGroup
	var hreq, hshed int
	if hostile {
		hostileWG.Add(1)
		go func() {
			defer hostileWG.Done()
			c := &serve.Client{Base: base, Tenant: "hostile"}
			target := funcsByShard["s0"][0]
			for {
				select {
				case <-done:
					return
				default:
				}
				hreq++
				_, err := c.AddProbe("s0", serve.ProbeSpec{Func: target, Kind: serve.KindPoison})
				var ae *serve.APIError
				if errors.As(err, &ae) && ae.Status == 429 {
					hshed++
					time.Sleep(5 * time.Millisecond)
				}
			}
		}()
	}

	var wg sync.WaitGroup
	errs := make([]error, healthy)
	for t := 0; t < healthy; t++ {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := shards[t%len(shards)]
			funcs := funcsByShard[shard]
			c := &serve.Client{Base: base, Tenant: fmt.Sprintf("tenant-%d", t)}
			r := &results[t]
			r.Tenant = c.Tenant
			r.Arm = arm
			r.Shard = shard
			var lats []time.Duration
			for i := 0; i < perTenant; i++ {
				// Skip funcs[0]: on s0 that is the hostile tenant's target,
				// and probe semantics are not what we measure.
				fn := funcs[0]
				if len(funcs) > 1 {
					fn = funcs[1+((t+i)%(len(funcs)-1))]
				}
				r.Requests++
				start := time.Now()
				id, retries, err := serveCommit(c, shard, fn)
				r.Retries += retries
				if err != nil {
					if isRetryable(err) {
						r.Dropped++
						continue
					}
					errs[t] = err
					return
				}
				lats = append(lats, time.Since(start))
				r.Committed++
				// Remove so active probes don't accumulate; removal shares
				// the same admission path but isn't separately timed.
				if err := serveAction(c, shard, id, "remove"); err != nil && !isRetryable(err) {
					errs[t] = err
					return
				}
			}
			r.P50, r.P99, r.Max = percentile(lats, 50), percentile(lats, 99), percentile(lats, 100)
		}()
	}
	wg.Wait()
	close(done)
	hostileWG.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return results, hreq, hshed, nil
}

// serveCommit adds one counter probe, retrying shed/backpressure verdicts
// until it commits or the retry budget is spent.
func serveCommit(c *serve.Client, shard, fn string) (id int64, retries int, err error) {
	for attempt := 0; attempt < 100; attempt++ {
		res, err := c.AddProbe(shard, serve.ProbeSpec{Func: fn})
		if err == nil {
			return res.ID, retries, nil
		}
		if !isRetryable(err) {
			return 0, retries, err
		}
		retries++
		time.Sleep(10 * time.Millisecond)
	}
	return 0, retries, &serve.APIError{Status: 429, Code: "shed", Msg: "retry budget exhausted"}
}

// serveAction applies a probe action with the same retry policy.
func serveAction(c *serve.Client, shard string, id int64, action string) error {
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		_, err = c.ProbeAction(shard, id, action)
		if err == nil || !isRetryable(err) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// isRetryable reports whether the error is a shed or backpressure verdict —
// the caller should retry, and an exhausted retry budget counts as dropped.
func isRetryable(err error) bool {
	var ae *serve.APIError
	return errors.As(err, &ae) && ae.Temporary()
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// PrintServeStorm renders both arms' per-tenant tables and returns the
// isolation verdict: no healthy ticket dropped and IsolationX at or under
// ServeIsolationFactor.
func PrintServeStorm(w io.Writer, s *ServeStormSummary) error {
	fmt.Fprintf(w, "Serve storm — multi-tenant probe traffic against a 2-shard control plane (%s, %s)\n",
		s.Programs[0], s.Programs[1])
	fmt.Fprintf(w, "%-10s %-9s %-6s %8s %9s %7s %7s %9s %9s %9s\n",
		"tenant", "arm", "shard", "requests", "committed", "dropped", "retries", "p50", "p99", "max")
	row := func(r ServeTenantResult) {
		fmt.Fprintf(w, "%-10s %-9s %-6s %8d %9d %7d %7d %9s %9s %9s\n",
			r.Tenant, r.Arm, r.Shard, r.Requests, r.Committed, r.Dropped, r.Retries,
			r.P50.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond),
			r.Max.Round(10*time.Microsecond))
	}
	for _, r := range s.Baseline {
		row(r)
	}
	for _, r := range s.Hostile {
		row(r)
	}
	fmt.Fprintf(w, "hostile tenant: %d poison requests, %d shed by admission\n",
		s.HostileRequests, s.HostileShed)
	line := fmt.Sprintf("healthy p99 %.3fms hostile vs %.3fms baseline — isolation %.2fx (gate %.1fx), %d healthy dropped",
		s.HealthyHostileP99MS, s.HealthyBaselineP99MS, s.IsolationX, ServeIsolationFactor, s.DroppedHealthy)
	var err error
	if s.IsolationX > ServeIsolationFactor || s.DroppedHealthy > 0 {
		err = errors.New(line)
	}
	return verdict(w, err, line)
}
