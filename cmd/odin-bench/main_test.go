package main

import (
	"slices"
	"testing"
)

func selected(t *testing.T, list string) []string {
	t.Helper()
	sel, err := selectExperiments(list)
	if err != nil {
		t.Fatalf("%q: %v", list, err)
	}
	var names []string
	for _, e := range sel {
		names = append(names, e.name)
	}
	return names
}

// TestExperimentTable: every table name resolves to itself, "all" selects
// the paper's figures, a list may mix suite and self-contained experiments,
// and an unknown name is rejected.
func TestExperimentTable(t *testing.T) {
	for _, name := range experimentNames() {
		if got := selected(t, name); !slices.Equal(got, []string{name}) {
			t.Errorf("%q selects %v", name, got)
		}
	}
	want := []string{"fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "codegen", "headline"}
	if got := selected(t, "all"); !slices.Equal(got, want) {
		t.Errorf("all selects %v, want %v", got, want)
	}
	if got := selected(t, "probe-toggle, fig11,parallel"); !slices.Equal(got, []string{"fig11", "parallel", "probe-toggle"}) {
		t.Errorf("mixed list selects %v", got)
	}
	if got := selected(t, "all,parallel"); len(got) != len(want)+1 || got[5] != "parallel" {
		t.Errorf("all,parallel selects %v", got)
	}
	for _, bad := range []string{"fig13", "probe-toggle,nosuch", ""} {
		if _, err := selectExperiments(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
