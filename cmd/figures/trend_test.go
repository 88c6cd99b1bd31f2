package main

import (
	"path/filepath"
	"testing"

	"anonshm/internal/exitcode"
	"anonshm/internal/obs"
)

// benchReport is a report in the form it reads back from a file: one
// N=2 safety sweep at the given rate.
func benchReport(rate float64, outcome string) *obs.Report {
	return &obs.Report{
		Tool:    "anonexplore",
		Config:  map[string]any{"check": "safety", "engine": "dfs", "inputs": []any{"a", "b"}, "workers": 1.0},
		Outcome: outcome,
		Sections: map[string]any{"sweep": map[string]any{
			"totalStates": rate * 2, "wallSeconds": 2.0, "statesPerSec": rate,
		}},
	}
}

// pointsOf projects reports onto their trend points.
func pointsOf(t *testing.T, reps ...*obs.Report) []trendPoint {
	t.Helper()
	out := make([]trendPoint, len(reps))
	for i, rep := range reps {
		p, ok := trendPointOf(rep)
		if !ok {
			t.Fatalf("report %d has no trend point", i)
		}
		out[i] = p
	}
	return out
}

// TestTrendFlagsInjectedRegression is the acceptance check: three
// healthy runs around 1000 states/sec followed by one at half that rate
// must be flagged at the default 0.5 threshold.
func TestTrendFlagsInjectedRegression(t *testing.T) {
	points := pointsOf(t,
		benchReport(1000, "ok"), benchReport(1100, "ok"), benchReport(1050, "ok"),
		benchReport(500, "ok"), // injected 2× slowdown
	)
	regs := trendRegressions(points, 0.5)
	if len(regs) != 1 {
		t.Fatalf("regressions = %+v, want exactly the injected one", regs)
	}
	if regs[0].Latest != 500 || regs[0].Median != 1050 || regs[0].Priors != 3 {
		t.Errorf("regression = %+v, want latest=500 median=1050 priors=3", regs[0])
	}
}

func TestTrendHealthyAndEdgeCases(t *testing.T) {
	healthy := pointsOf(t, benchReport(1000, "ok"), benchReport(1100, "ok"), benchReport(980, "ok"))
	if regs := trendRegressions(healthy, 0.5); len(regs) != 0 {
		t.Errorf("healthy trajectory flagged: %+v", regs)
	}
	// One prior is not enough history to call anything a regression.
	short := pointsOf(t, benchReport(1000, "ok"), benchReport(100, "ok"))
	if regs := trendRegressions(short, 0.5); len(regs) != 0 {
		t.Errorf("single-prior trajectory flagged: %+v", regs)
	}
	// Failed runs are excluded from the baseline: a slow "stalled" run
	// must not drag the median down and mask a real regression.
	mixed := pointsOf(t, benchReport(1000, "ok"), benchReport(10, "stalled"), benchReport(1100, "ok"), benchReport(400, "ok"))
	if regs := trendRegressions(mixed, 0.5); len(regs) != 1 {
		t.Errorf("regression masked by failed-run baseline: %+v", regs)
	}
	// Threshold 0 disables the check entirely.
	if regs := trendRegressions(pointsOf(t, benchReport(1000, "ok"), benchReport(1100, "ok"), benchReport(1, "ok")), 0); len(regs) != 0 {
		t.Errorf("disabled check still flagged: %+v", regs)
	}
	// Different configs never share a trajectory.
	other := benchReport(10, "ok")
	other.Config = map[string]any{"check": "safety", "engine": "parallel", "inputs": []any{"a", "b"}, "workers": 1.0}
	split := pointsOf(t, benchReport(1000, "ok"), benchReport(1100, "ok"), other)
	if regs := trendRegressions(split, 0.5); len(regs) != 0 {
		t.Errorf("cross-config comparison: %+v", regs)
	}
}

// TestKeyDistinguishesConfigs: the trajectory key is the tool plus the
// whole config, independent of the order the config's fields were
// written in.
func TestKeyDistinguishesConfigs(t *testing.T) {
	a := configKey("anonexplore", map[string]any{"check": "safety", "engine": "dfs"})
	b := configKey("anonexplore", map[string]any{"check": "safety", "engine": "parallel"})
	c := configKey("anonexplore", map[string]any{"check": "waitfree", "engine": "dfs"})
	d := configKey("anonsim", map[string]any{"check": "safety", "engine": "dfs"})
	if a == b || a == c || a == d {
		t.Fatalf("keys collide: %q %q %q %q", a, b, c, d)
	}
	if want := "anonexplore check=safety engine=dfs"; a != want {
		t.Errorf("key = %q, want %q", a, want)
	}
}

// TestTrendPointOf: a report projects onto its sweep totals, outcome,
// time and traced phases; reports without a config or without sweep
// totals have no trend point.
func TestTrendPointOf(t *testing.T) {
	rep := benchReport(4026, "ok")
	rep.Time = "2026-01-02T03:04:05Z"
	rep.Section("trace", map[string]any{"phases": map[string]any{"sweep": 1.5, "wiring": 1.25}})
	p, ok := trendPointOf(rep)
	if !ok {
		t.Fatal("trendPointOf rejected a sweep report")
	}
	if p.states != 8052 || p.statesPerSec != 4026 || p.wallSeconds != 2 ||
		p.outcome != "ok" || p.time != rep.Time || p.phases["wiring"] != 1.25 {
		t.Fatalf("point = %+v", p)
	}
	noConfig := benchReport(4026, "ok")
	noConfig.Config = nil
	if _, ok := trendPointOf(noConfig); ok {
		t.Error("a report without a config has a trend point")
	}
	sim := &obs.Report{Tool: "anonsim", Config: map[string]any{"algo": "snapshot"},
		Sections: map[string]any{"run": map[string]any{"steps": 40.0}}}
	if _, ok := trendPointOf(sim); ok {
		t.Error("a report without sweep totals has a trend point")
	}
}

// TestLoadTrendSniffsFormats: a path may be a JSONL ledger or a single
// report file; both load as reports, and a report file and ledger lines
// of the same config land in one trajectory.
func TestLoadTrendSniffsFormats(t *testing.T) {
	dir := t.TempDir()
	ledgerPath := filepath.Join(dir, "runs.jsonl")
	for _, rep := range []*obs.Report{benchReport(1000, "ok"), benchReport(1100, "ok")} {
		if err := obs.AppendLedger(ledgerPath, rep); err != nil {
			t.Fatal(err)
		}
	}
	fromLedger, err := loadTrend(ledgerPath)
	if err != nil || len(fromLedger) != 2 {
		t.Fatalf("ledger load = %d reports, err %v", len(fromLedger), err)
	}
	repPath := filepath.Join(dir, "BENCH_test.json")
	if err := benchReport(1050, "ok").WriteFile(repPath); err != nil {
		t.Fatal(err)
	}
	fromFile, err := loadTrend(repPath)
	if err != nil || len(fromFile) != 1 {
		t.Fatalf("report load = %d reports, err %v", len(fromFile), err)
	}
	_, order := groupPoints(pointsOf(t, append(fromFile, fromLedger...)...))
	if len(order) != 1 {
		t.Errorf("report file and ledger lines of one config form %d trajectories: %q", len(order), order)
	}
}

// TestRunTrendExitCode: the regression error must carry the dedicated
// exit code so CI can soft-fail on it explicitly.
func TestRunTrendExitCode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for _, rep := range []*obs.Report{benchReport(1000, "ok"), benchReport(1100, "ok"), benchReport(400, "ok")} {
		if err := obs.AppendLedger(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	err := runTrend([]string{path}, 0.5)
	if err == nil {
		t.Fatal("regressed ledger produced no error")
	}
	if code := exitcode.Code(err); code != exitcode.Regression {
		t.Fatalf("exit code = %d, want %d", code, exitcode.Regression)
	}
	if err := runTrend([]string{path}, 0); err != nil {
		t.Fatalf("disabled threshold still errored: %v", err)
	}
}
