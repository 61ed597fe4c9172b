package serve

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"odin/internal/faultinject"
	"odin/internal/persist"
)

// TestReplayOrderDeterministic pins the replay order: ledgerStates yields
// probes in ascending serve-ID order, so replaying them onto a fresh slot
// assigns engine IDs in that same order. Schedule instruments active probes
// by engine ID, so this is what keeps probes sharing a function spliced in
// one order across every restart and promotion.
func TestReplayOrderDeterministic(t *testing.T) {
	const n = 12
	srv, _, client := newTestServer(t, Options{
		Admission: AdmissionOptions{TenantRPS: -1},
		Shards:    []ShardSpec{{Name: "alpha", Module: testModule(t, 4), Watchdog: WatchdogOptions{Disable: true}}},
	})
	c := client("acme")
	for i := 0; i < n; i++ {
		if _, err := c.AddProbe("alpha", ProbeSpec{Func: fmt.Sprintf("f%d", i%4)}); err != nil {
			t.Fatalf("AddProbe %d: %v", i, err)
		}
	}

	sh := srv.byName["alpha"]
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	slot, err := sh.bootEngine(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	defer slot.close()
	states := sh.ledgerStates()
	engIDs, err := replayInto(ctx, slot, states, &sh.site)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 0, len(engIDs))
	for id := range engIDs {
		ids = append(ids, id)
	}
	if len(ids) != n {
		t.Fatalf("replayed %d probes, want %d", len(ids), n)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 1; i < len(ids); i++ {
		if engIDs[ids[i]] <= engIDs[ids[i-1]] {
			t.Fatalf("serve IDs %d < %d replayed as engine IDs %d >= %d (ledger order %v)",
				ids[i-1], ids[i], engIDs[ids[i-1]], engIDs[ids[i]], stateIDs(states))
		}
	}
}

func stateIDs(states []probeState) []int64 {
	out := make([]int64, len(states))
	for i, st := range states {
		out[i] = st.ID
	}
	return out
}

// TestRecoveryModel runs a seeded add/enable/remove/change sequence against
// a model, then drives a restart and a promotion through failover. After
// each recovery the ledger, the on-disk journal and the serving engine must
// agree with the model on the active set, every inactive probe must still
// be re-enabled by its serve ID, and the promoted slot must be read-only.
func TestRecoveryModel(t *testing.T) {
	const nfuncs = 5
	srv, _, client := newTestServer(t, Options{
		DataDir:   t.TempDir(),
		Admission: AdmissionOptions{TenantRPS: -1},
		Shards: []ShardSpec{{
			Name:     "alpha",
			Module:   testModule(t, nfuncs),
			Replicas: 1,
			Watchdog: WatchdogOptions{Disable: true},
		}},
	})
	c := client("acme")
	sh := srv.byName["alpha"]
	rng := rand.New(rand.NewSource(12))
	model := map[int64]bool{} // serve ID → active

	act := func(id int64, action string) {
		t.Helper()
		if _, err := c.ProbeAction("alpha", id, action); err != nil {
			t.Fatalf("%s probe %d: %v", action, id, err)
		}
	}
	pick := func(active bool) (int64, bool) {
		ids := modelIDs(model, active)
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.Intn(len(ids))], true
	}
	runOps := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				res, err := c.AddProbe("alpha", ProbeSpec{Func: fmt.Sprintf("f%d", rng.Intn(nfuncs))})
				if err != nil {
					t.Fatalf("AddProbe: %v", err)
				}
				model[res.ID] = true
			case 1:
				if id, ok := pick(false); ok {
					act(id, "enable")
					model[id] = true
				}
			case 2:
				if id, ok := pick(true); ok {
					act(id, "remove")
					model[id] = false
				}
			case 3:
				if id, ok := pick(true); ok {
					act(id, "change")
				}
			}
		}
	}
	check := func(after string) {
		t.Helper()
		want := modelIDs(model, true)
		if got := ledgerActive(sh); !sameIDs(got, want) {
			t.Fatalf("after %s: ledger active %v, model %v", after, got, want)
		}
		if got := journalActive(t, sh.spec.JournalPath); !sameIDs(got, want) {
			t.Fatalf("after %s: journal active %v, model %v", after, got, want)
		}
		if got := engineActive(sh); !sameIDs(got, want) {
			t.Fatalf("after %s: engine active %v, model %v", after, got, want)
		}
		// Every inactive probe still re-enables by serve ID (registering
		// it on the new slot), then goes back to inactive.
		for _, id := range modelIDs(model, false) {
			act(id, "enable")
			rec, _ := sh.lookupProbe(id)
			if !sh.current().eng.Manager.IsActive(rec.EngID) {
				t.Fatalf("after %s: probe %d enabled but engine probe %d inactive", after, id, rec.EngID)
			}
			act(id, "remove")
		}
	}

	runOps(40)
	if err := sh.lc.failover(kindRestart, "model restart", func(ctx context.Context) (*engineSlot, error) {
		return sh.bootEngine(ctx, false)
	}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	check("restart")

	runOps(40)
	if err := sh.lc.failover(kindPromotion, "model promotion", sh.takeSpare); err != nil {
		t.Fatalf("promotion: %v", err)
	}
	check("promotion")
	if !sh.current().readOnly || !srv.Fleet().Shards[0].ReadOnly {
		t.Fatalf("promoted slot should report read-only")
	}
	if evs := srv.ShardFailovers("alpha"); len(evs) != 2 || evs[0].Kind != kindRestart || evs[1].Kind != kindPromotion {
		t.Fatalf("failover events = %+v, want restart then promotion", evs)
	}
}

// TestReplayRegistersActiveOnly ages a shard with removed probes and
// checks that a failover's replay registers only the active ones on the
// new slot — replay cost follows the active set, not the shard's history —
// while a removed probe still re-enables by serve ID afterwards.
func TestReplayRegistersActiveOnly(t *testing.T) {
	const n, keep = 30, 5
	srv, _, client := newTestServer(t, Options{
		Admission: AdmissionOptions{TenantRPS: -1},
		Shards:    []ShardSpec{{Name: "alpha", Module: testModule(t, 4), Watchdog: WatchdogOptions{Disable: true}}},
	})
	c := client("acme")
	sh := srv.byName["alpha"]
	var removed []int64
	for i := 0; i < n; i++ {
		res, err := c.AddProbe("alpha", ProbeSpec{Func: fmt.Sprintf("f%d", i%4)})
		if err != nil {
			t.Fatalf("AddProbe %d: %v", i, err)
		}
		if i >= keep {
			if _, err := c.ProbeAction("alpha", res.ID, "remove"); err != nil {
				t.Fatalf("remove %d: %v", res.ID, err)
			}
			removed = append(removed, res.ID)
		}
	}
	if err := sh.lc.failover(kindRestart, "aged", func(ctx context.Context) (*engineSlot, error) {
		return sh.bootEngine(ctx, false)
	}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	slot := sh.current()
	registered := 0
	for id := 0; id < 4*n; id++ {
		if _, ok := slot.eng.Manager.Get(id); ok {
			registered++
		}
	}
	if registered != keep {
		t.Fatalf("new slot holds %d probes, want the %d active ones", registered, keep)
	}
	if got, want := engineActive(sh), ledgerActive(sh); len(want) != keep || !sameIDs(got, want) {
		t.Fatalf("engine active %v, ledger active %v", got, want)
	}
	id := removed[len(removed)/2]
	if _, err := c.ProbeAction("alpha", id, "enable"); err != nil {
		t.Fatalf("re-enable %d after failover: %v", id, err)
	}
	if got, want := engineActive(sh), ledgerActive(sh); len(want) != keep+1 || !sameIDs(got, want) {
		t.Fatalf("after re-enable: engine active %v, ledger active %v", got, want)
	}
}

// TestLateAddConvergesAfterFailover stalls an add in the old slot's commit
// past the drain timeout, so the failover's replay reads the ledger before
// the add commits and leaves the probe off the new slot. The add then
// commits on the swapped-out slot; before the client gets its 200 the new
// slot must have it active, as the ledger says — a second stall holds the
// new slot's catch-up generation, so an answer that did not wait for it
// shows — and a remove sent right after the 200 must leave both inactive.
func TestLateAddConvergesAfterFailover(t *testing.T) {
	inj := faultinject.New(3)
	inj.SetStall(time.Second)
	srv, _, client := newTestServer(t, Options{
		Admission: AdmissionOptions{TenantRPS: -1},
		Shards: []ShardSpec{{
			Name:      "alpha",
			Module:    testModule(t, 4),
			FaultHook: inj.At,
			Watchdog:  WatchdogOptions{Disable: true, DrainTimeout: 100 * time.Millisecond},
		}},
	})
	c := client("acme")
	sh := srv.byName["alpha"]
	inj.Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1})
	done := make(chan error, 1)
	go func() {
		_, err := c.AddProbe("alpha", ProbeSpec{Func: "f0"})
		done <- err
	}()
	waitFor(t, 5*time.Second, "add in flight", func() bool { return len(sh.ledgerStates()) == 1 })
	if err := sh.lc.failover(kindRestart, "late add", func(ctx context.Context) (*engineSlot, error) {
		return sh.bootEngine(ctx, false)
	}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	inj.Arm(faultinject.Rule{Site: "supervisor:commit", Kind: faultinject.KindStall, Rate: 1, Times: 1})
	if err := <-done; err != nil {
		t.Fatalf("AddProbe across failover: %v", err)
	}
	if h := sh.current().sup.Health(); h.GenInFlight || h.QueueDepth > 0 {
		t.Fatalf("the add answered before the new slot caught up: %+v", h)
	}
	want := ledgerActive(sh)
	if got := engineActive(sh); len(want) != 1 || !sameIDs(got, want) {
		t.Fatalf("after the add's 200: engine active %v, ledger active %v", got, want)
	}
	if _, err := c.ProbeAction("alpha", want[0], "remove"); err != nil {
		t.Fatalf("remove after late add: %v", err)
	}
	if got, want := engineActive(sh), ledgerActive(sh); len(want) != 0 || len(got) != 0 {
		t.Fatalf("after remove: engine active %v, ledger active %v", got, want)
	}
}

// modelIDs lists the model's probes in one state, in ascending serve ID.
func modelIDs(model map[int64]bool, active bool) []int64 {
	var out []int64
	for id, a := range model {
		if a == active {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ledgerActive(sh *shard) []int64 {
	var out []int64
	for _, st := range sh.ledgerStates() {
		if st.Active {
			out = append(out, st.ID)
		}
	}
	return out
}

// journalActive reduces a copy of the on-disk journal (the shard keeps the
// original open for appending).
func journalActive(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "journal.copy")
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := persist.OpenLog(cp, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	var out []int64
	for _, st := range reduceJournal(decodeJournalOps(recs)) {
		if st.Active {
			out = append(out, st.ID)
		}
	}
	return out
}

// engineActive maps the serving slot's active engine probes back to serve
// IDs through the ledger.
func engineActive(sh *shard) []int64 {
	slot := sh.current()
	byEng := map[int]int64{}
	sh.mu.Lock()
	for id, rec := range sh.probes {
		if rec.gen == slot.gen {
			byEng[rec.EngID] = id
		}
	}
	sh.mu.Unlock()
	var out []int64
	for _, engID := range slot.eng.Manager.Active() {
		id, ok := byEng[engID]
		if !ok {
			id = -int64(engID) // an engine probe the ledger does not know
		}
		out = append(out, id)
	}
	return out
}

func sameIDs(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	a = append([]int64(nil), a...)
	b = append([]int64(nil), b...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
