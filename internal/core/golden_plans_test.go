package core_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"aptget/internal/core"
	"aptget/internal/workloads"
)

// goldenLines renders every default-config plan for the full registry
// (Table 3 apps plus the phased workloads) in a stable one-line-per-plan
// format, and the PMU counters of each app's profiled run one line per
// app. The counters come from a run with both hardware prefetchers on,
// so they pin the whole memory hierarchy, not just the plans it yields.
func goldenLines(t *testing.T) (plansOut, countersOut string) {
	t.Helper()
	var sb, cb strings.Builder
	entries := append([]workloads.Entry{}, workloads.Registry()...)
	entries = append(entries, workloads.PhasedRegistry()...)
	for _, e := range entries {
		prof, plans, err := core.ProfileAndPlan(e.New(), core.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", e.Key, err)
		}
		fmt.Fprintf(&cb, "%s %+v\n", e.Key, prof.Counters)
		for _, p := range plans {
			fmt.Fprintf(&sb, "%s load=%s site=%s dist=%d inner=%d outer=%d trip=%.2f fb=%q\n",
				e.Key, p.LoadName, p.Site, p.Distance, p.InnerDistance, p.OuterDistance,
				p.AvgTrip, p.Fallback)
		}
		if len(plans) == 0 {
			fmt.Fprintf(&sb, "%s (no plans)\n", e.Key)
		}
	}
	return sb.String(), cb.String()
}

// TestGoldenPlansDefaultConfig pins the plans the default pipeline
// emits for every registered workload, and the counters of the profiled
// runs behind them. The pipeline is deterministic, so any drift here is
// a real behavior change: either a bug, or an intentional shift that
// must be re-pinned with UPDATE_GOLDEN=1 and documented in
// EXPERIMENTS.md (see the "Plan shifts" note there for the
// selection-gate PR's re-pin). A simulator optimisation must leave both
// files byte-identical.
func TestGoldenPlansDefaultConfig(t *testing.T) {
	plans, counters := goldenLines(t)
	checkGolden(t, "testdata/golden_plans.txt", plans)
	checkGolden(t, "testdata/golden_counters.txt", counters)
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n  got  %s\n  want %s", i+1, g, w)
		}
	}
	t.Errorf("%s drifted (UPDATE_GOLDEN=1 re-pins after review)", path)
}
