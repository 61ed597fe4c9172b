package bench

import (
	"bytes"
	"strings"
	"testing"

	"odin/internal/progen"
)

// TestRunStorm runs a small storm on the prepared suite and checks the
// acceptance properties: every program's final image matches its serial
// reference, every ticket resolved (latency sample count == requests), and
// concurrent toggles coalesced into fewer rebuild generations.
func TestRunStorm(t *testing.T) {
	pd, err := Prepare(progen.Suite()[0], 20) // one program keeps the test quick; cmd sweeps all
	if err != nil {
		t.Fatal(err)
	}
	progs := []*ProgramData{pd}

	rows, err := RunStorm(progs, 4, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.RefMatch {
			t.Errorf("%s: final image diverged from serial reference", r.Program)
		}
		// 4 goroutines x 12 ops each, plus the initial Sync.
		if want := 4*12 + 1; r.Requests != want {
			t.Errorf("%s: requests = %d, want %d (lost or duplicated tickets)", r.Program, r.Requests, want)
		}
		if r.Generations == 0 || uint64(r.Requests) < r.Generations {
			t.Errorf("%s: generations = %d for %d requests", r.Program, r.Generations, r.Requests)
		}
		if r.CoalescingRatio < 1 {
			t.Errorf("%s: coalescing ratio %.2f < 1", r.Program, r.CoalescingRatio)
		}
	}

	var buf bytes.Buffer
	PrintStorm(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, rows[0].Program) || !strings.Contains(out, "coalesce") {
		t.Fatalf("PrintStorm output missing fields:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("PrintStorm reports failure:\n%s", out)
	}
}
