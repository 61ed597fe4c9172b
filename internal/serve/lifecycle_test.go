package serve

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"odin/internal/faultinject"
	"odin/internal/ir"
)

// fastWatchdog is a watchdog tuned for tests: tight sampling and deadlines
// so a wedge is detected in tens of milliseconds, not tens of seconds.
func fastWatchdog() WatchdogOptions {
	return WatchdogOptions{
		Interval:          20 * time.Millisecond,
		StuckQueueAge:     300 * time.Millisecond,
		GenDeadline:       500 * time.Millisecond,
		BreakerOpenGrace:  50 * time.Millisecond,
		BreakerWedgeAfter: 400 * time.Millisecond,
		RestartAttempts:   1,
		RestartBackoff:    20 * time.Millisecond,
		DrainTimeout:      time.Second,
		BootTimeout:       time.Minute,
	}
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestJournalReplayAcrossRestart pins the durability contract: probes added
// through the API survive a full server bounce (new process, same data
// dir), with their serve-level IDs and active/inactive state intact.
func TestJournalReplayAcrossRestart(t *testing.T) {
	dataDir := t.TempDir()
	mod := testModule(t, 5)
	boot := func() (*Server, func()) {
		clone, _ := ir.CloneModule(mod)
		srv, err := New(Options{
			DataDir: dataDir,
			Shards:  []ShardSpec{{Name: "alpha", Module: clone, Watchdog: WatchdogOptions{Disable: true}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			srv.Close(ctx)
		}
	}

	srv, closeSrv := boot()
	hs, client := startTest(t, srv)
	c := client("acme")
	res1, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}
	res2, err := c.AddProbe("alpha", ProbeSpec{Func: "f1"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}
	if _, err := c.ProbeAction("alpha", res2.ID, "remove"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	hs.Close()
	closeSrv()

	srv2, closeSrv2 := boot()
	defer closeSrv2()
	hs2, client2 := startTest(t, srv2)
	defer hs2.Close()
	c2 := client2("acme")

	// The removed probe can be re-enabled under its old ID; the active one
	// is live (remove works), both owned by the same tenant.
	if _, err := c2.ProbeAction("alpha", res2.ID, "enable"); err != nil {
		t.Fatalf("enable replayed probe %d: %v", res2.ID, err)
	}
	if _, err := c2.ProbeAction("alpha", res1.ID, "remove"); err != nil {
		t.Fatalf("remove replayed probe %d: %v", res1.ID, err)
	}
	// A fresh add must not collide with replayed IDs.
	res3, err := c2.AddProbe("alpha", ProbeSpec{Func: "f2"})
	if err != nil {
		t.Fatalf("AddProbe after replay: %v", err)
	}
	if res3.ID == res1.ID || res3.ID == res2.ID {
		t.Fatalf("replayed ID collision: new %d vs old %d/%d", res3.ID, res1.ID, res2.ID)
	}
}

// startTest is newTestServer's tail for a server built by the caller.
func startTest(t *testing.T, srv *Server) (*httptest.Server, func(string) *Client) {
	t.Helper()
	hs := httptest.NewServer(srv.Handler())
	return hs, func(tenant string) *Client { return &Client{Base: hs.URL, Tenant: tenant} }
}

// TestWatchdogRestartFromSnapshot wedges a replica-less shard with a
// persistent stall at the commit site and asserts the watchdog restarts the
// engine in place: the shard returns to healthy, a restart failover event
// is recorded, and probes registered before the wedge still answer under
// their serve-level IDs.
func TestWatchdogRestartFromSnapshot(t *testing.T) {
	inj := faultinject.New(7)
	inj.SetStall(2 * time.Second)
	dataDir := t.TempDir()
	srv, err := New(Options{
		DataDir: dataDir,
		Shards: []ShardSpec{{
			Name:      "alpha",
			Module:    testModule(t, 5),
			FaultHook: inj.At,
			Watchdog: WatchdogOptions{
				Interval:        20 * time.Millisecond,
				GenDeadline:     200 * time.Millisecond,
				StuckQueueAge:   300 * time.Millisecond,
				RestartAttempts: 2,
				RestartBackoff:  20 * time.Millisecond,
				DrainTimeout:    500 * time.Millisecond,
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	hs, client := startTest(t, srv)
	defer hs.Close()
	c := client("acme")

	res, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}

	// Wedge: every commit from now on stalls 2s, far past GenDeadline. The
	// request itself rides through the failover (parked + re-admitted or
	// committed by the drain), so fire it from a goroutine with a generous
	// client-side budget.
	inj.Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.AddProbe("alpha", ProbeSpec{Func: "f1"})
	}()

	waitFor(t, 15*time.Second, "watchdog restart", func() bool {
		evs := srv.ShardFailovers("alpha")
		return len(evs) > 0 && evs[0].Kind == "restart"
	})
	wg.Wait()
	waitFor(t, 10*time.Second, "shard healthy again", func() bool {
		return srv.ShardState("alpha") == ShardHealthy
	})

	// The restarted engine still knows the pre-wedge probe.
	if _, err := c.ProbeAction("alpha", res.ID, "remove"); err != nil {
		t.Fatalf("remove probe %d after restart: %v", res.ID, err)
	}
	// And the restart warm-started from the persist tier.
	snap := srv.Fleet()
	if snap.Shards[0].Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", snap.Shards[0].Restarts)
	}
	if snap.Shards[0].WarmHits == 0 {
		t.Fatalf("restarted shard did not warm-start (warm hits = 0)")
	}
}

// TestPromotionZeroDowntime wedges a shard that has a hot spare and no
// restart budget, and asserts the ladder promotes the spare: requests keep
// succeeding throughout (parked during the swap, never dropped), the
// promoted slot is read-only, and pre-wedge probes survive with their IDs.
func TestPromotionZeroDowntime(t *testing.T) {
	inj := faultinject.New(11)
	inj.SetStall(2 * time.Second)
	dataDir := t.TempDir()
	srv, err := New(Options{
		DataDir: dataDir,
		Shards: []ShardSpec{{
			Name:      "alpha",
			Module:    testModule(t, 5),
			Replicas:  1,
			FaultHook: inj.At,
			Watchdog: WatchdogOptions{
				Interval:        20 * time.Millisecond,
				GenDeadline:     200 * time.Millisecond,
				StuckQueueAge:   300 * time.Millisecond,
				RestartAttempts: -1, // straight to promotion
				DrainTimeout:    500 * time.Millisecond,
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	hs, client := startTest(t, srv)
	defer hs.Close()
	c := client("acme")

	res, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	if err != nil {
		t.Fatalf("AddProbe: %v", err)
	}
	// Wait for the spare to finish its boot build before the kill, as a real
	// deployment would (the fleet view reports spare readiness).
	waitFor(t, 30*time.Second, "hot spare ready", func() bool {
		return srv.Fleet().Shards[0].Replica
	})

	// Kill the primary: one 2s stall wedges the generation past deadline.
	inj.Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.AddProbe("alpha", ProbeSpec{Func: "f1"})
	}()

	waitFor(t, 15*time.Second, "promotion", func() bool {
		evs := srv.ShardFailovers("alpha")
		return len(evs) > 0 && evs[len(evs)-1].Kind == "promotion"
	})
	wg.Wait()
	waitFor(t, 10*time.Second, "shard healthy again", func() bool {
		return srv.ShardState("alpha") == ShardHealthy
	})

	// Zero dropped: mid-failover and post-failover requests all commit.
	if _, err := c.ProbeAction("alpha", res.ID, "remove"); err != nil {
		t.Fatalf("remove pre-failover probe %d on promoted slot: %v", res.ID, err)
	}
	if _, err := c.AddProbe("alpha", ProbeSpec{Func: "f2"}); err != nil {
		t.Fatalf("AddProbe on promoted slot: %v", err)
	}
	snap := srv.Fleet()
	if snap.Shards[0].Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", snap.Shards[0].Promotions)
	}
	if !snap.Shards[0].ReadOnly {
		t.Fatalf("promoted slot should serve read-only from the primary's cache")
	}
}

// TestDeadShardFailsFast exhausts the ladder (no spare, no restart budget
// left because boot itself is broken) and asserts requests fail fast with
// the dead verdict + Retry-After instead of hanging.
func TestDeadShardFailsFast(t *testing.T) {
	mod := testModule(t, 4)
	srv, err := New(Options{
		Shards: []ShardSpec{{Name: "alpha", Module: mod, Watchdog: WatchdogOptions{Disable: true}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	hs, client := startTest(t, srv)
	defer hs.Close()
	c := client("acme")

	// Drive the terminal rung directly (the watchdog paths are exercised
	// above); markDead is what the ladder calls after promotion fails.
	sh := srv.byName["alpha"]
	sh.markDead(context.DeadlineExceeded)

	_, err = c.AddProbe("alpha", ProbeSpec{Func: "f0"})
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("expected APIError, got %v", err)
	}
	if ae.Status != 503 || ae.Code != "dead" {
		t.Fatalf("dead shard verdict = %d %s, want 503 dead", ae.Status, ae.Code)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("dead shard response missing Retry-After")
	}
}

// TestParkedRequestsReadmit holds the swap gate open manually and asserts
// requests park (no failure) until endSwap, then complete against the slot.
func TestParkedRequestsReadmit(t *testing.T) {
	srv, err := New(Options{
		Shards: []ShardSpec{{Name: "alpha", Module: testModule(t, 4), Watchdog: WatchdogOptions{Disable: true}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Close(ctx)
	}()
	hs, client := startTest(t, srv)
	defer hs.Close()
	c := client("acme")

	sh := srv.byName["alpha"]
	sh.beginSwap()
	done := make(chan error, 1)
	go func() {
		_, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("request completed through a closed swap gate: err=%v", err)
	case <-time.After(200 * time.Millisecond):
	}
	sh.endSwap(nil, nil)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("parked request failed after gate reopened: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked request never re-admitted")
	}
	if got := sh.metrics.parked.Value(); got == 0 {
		t.Fatalf("parked counter = 0, want > 0")
	}
}
