package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunServeStorm runs a scaled-down multi-tenant storm against the
// two-shard control plane and checks the acceptance properties: every
// healthy ticket commits (zero drops), the hostile tenant is shed by
// admission rather than starving a shard, and the isolation factor is a
// sane positive number.
func TestRunServeStorm(t *testing.T) {
	sum, err := RunServeStorm([]string{"json", "woff2"}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sum.DroppedHealthy != 0 {
		t.Errorf("dropped %d healthy tickets under hostile load", sum.DroppedHealthy)
	}
	if len(sum.Baseline) != 2 || len(sum.Hostile) != 2 {
		t.Errorf("arms = %d baseline / %d hostile healthy tenants, want 2/2",
			len(sum.Baseline), len(sum.Hostile))
	}
	for _, r := range append(append([]ServeTenantResult{}, sum.Baseline...), sum.Hostile...) {
		if r.Tenant == "hostile" {
			continue
		}
		if r.Committed != r.Requests {
			t.Errorf("%s/%s: committed %d of %d requests", r.Arm, r.Tenant, r.Committed, r.Requests)
		}
	}
	if sum.IsolationX <= 0 {
		t.Errorf("isolation factor %.2f, want > 0", sum.IsolationX)
	}
	if sum.HostileRequests == 0 {
		t.Error("hostile tenant issued no requests")
	}

	var buf bytes.Buffer
	PrintServeStorm(&buf, sum)
	for _, want := range []string{"Serve storm", "hostile", "isolation"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}

	// The summary must feed the artifact gate.
	if ms := ServeStormMetrics(sum); len(ms) == 0 || !strings.HasPrefix(ms[0].Name, "serve-storm/") {
		t.Errorf("ServeStormMetrics recorded no serve-storm metrics: %+v", ms)
	}
}

// TestRunServeStormValidates rejects malformed program lists.
func TestRunServeStormValidates(t *testing.T) {
	if _, err := RunServeStorm([]string{"json"}, 1, 1); err == nil {
		t.Error("one program accepted, want two-shard requirement error")
	}
	if _, err := RunServeStorm([]string{"json", "nosuch"}, 1, 1); err == nil {
		t.Error("unknown program accepted")
	}
}
