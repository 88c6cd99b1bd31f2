package main

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/obs/span"
	"anonshm/internal/view"
)

// n2System builds the two-processor Figure 3 system the tests explore.
func n2System(t *testing.T) (*machine.System, []view.ID) {
	t.Helper()
	sys, in, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	return sys, []view.ID{in.Intern("a"), in.Intern("b")}
}

// n2Configs are the N=2 configurations the tests cover: every
// symmetry level, both store tiers, both invariants, with and without
// crashes and the prune. The disk tier's limit is small enough to make
// it spill and replay.
var n2Configs = []Config{
	{Engine: "dfs", Workers: 1, Symmetry: "none", Store: "mem", Invariant: "snapshot"},
	{Engine: "dfs", Workers: 1, Symmetry: "full", Store: "mem", Invariant: "snapshot", Prune: PruneRule},
	{Engine: "parallel", Workers: 1, Symmetry: "none", Store: "disk", MemLimit: "16KiB", Invariant: "snapshot"},
	{Engine: "parallel", Workers: 2, Symmetry: "none", Store: "mem", MaxCrashes: 1, Invariant: "waitfree"},
	{Engine: "parallel", Workers: 2, Symmetry: "none", Store: "mem", MaxCrashes: 1, Invariant: "waitfree", Prune: PruneRule},
	{Engine: "dfs", Workers: 1, Symmetry: "proc", Store: "mem", MaxCrashes: 1, Invariant: "snapshot"},
}

func mustCheck(t *testing.T, sys *machine.System, opts explore.Options) explore.Result {
	t.Helper()
	out, err := Check(sys, opts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if out.Verdict != "ok" {
		t.Fatalf("verdict %s", out.Verdict)
	}
	return out.Res
}

// TestWrappersLeaveRunsIdentical checks that the traced run's timed
// canonicalizer, timed callbacks and span tracer change neither the
// fingerprints nor the states, edges and terminals of a run.
func TestWrappersLeaveRunsIdentical(t *testing.T) {
	sys, ids := n2System(t)
	for _, cfg := range n2Configs {
		opts, err := cfg.Options(ids)
		if err != nil {
			t.Fatal(err)
		}
		plain := mustCheck(t, sys, opts)
		acc := &layerAcc{}
		traced := mustCheck(t, sys, acc.wrap(opts, span.Collect()))
		if plain.States != traced.States || plain.Edges != traced.Edges || plain.Terminals != traced.Terminals || plain.MaxDepth != traced.MaxDepth {
			t.Errorf("%+v: traced run %d/%d/%d/%d, plain %d/%d/%d/%d (states/edges/terminals/depth)", cfg,
				traced.States, traced.Edges, traced.Terminals, traced.MaxDepth,
				plain.States, plain.Edges, plain.Terminals, plain.MaxDepth)
		}
		if acc.fpCalls.Load() == 0 || acc.invCalls.Load() == 0 || (cfg.Prune != "") != (acc.pruneCalls.Load() > 0) {
			t.Errorf("%+v: wrappers called %d/%d/%d times (fingerprint/invariant/prune)", cfg,
				acc.fpCalls.Load(), acc.invCalls.Load(), acc.pruneCalls.Load())
		}
		if cfg.Store == "disk" && (traced.Stats.Store.Spills == 0 || traced.Stats.Store.Replays == 0) {
			t.Errorf("%+v: disk tier did not spill and replay: %+v", cfg, traced.Stats.Store)
		}
		wrapped := timedCanon{inner: opts.Canonicalizer, acc: acc}
		if wrapped.String() != opts.Canonicalizer.String() {
			t.Errorf("wrapped canonicalizer is named %q, want %q", wrapped.String(), opts.Canonicalizer.String())
		}
		checkFingerprints(t, sys, opts.Canonicalizer, wrapped)
	}
}

// checkFingerprints compares both canonicalizers' fingerprints on the
// states of seeded random walks, crashes included.
func checkFingerprints(t *testing.T, init *machine.System, plain, wrapped canon.Canonicalizer) {
	t.Helper()
	hp, err := plain.Bind(init)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := wrapped.Bind(init)
	if err != nil {
		t.Fatal(err)
	}
	if hp.GroupSize() != hw.GroupSize() {
		t.Fatalf("group size %d, want %d", hw.GroupSize(), hp.GroupSize())
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for walk := 0; walk < 20; walk++ {
		sys := init.Clone()
		for step := 0; step < 40; step++ {
			for _, aux := range []uint64{0, 7} {
				if a, b := hp.Fingerprint(sys, aux), hw.Fingerprint(sys, aux); a != b {
					t.Fatalf("walk %d step %d: wrapped fingerprint %x, want %x", walk, step, b, a)
				}
			}
			var enabled []int
			for p := 0; p < sys.N(); p++ {
				if sys.Enabled(p) {
					enabled = append(enabled, p)
				}
			}
			if len(enabled) == 0 {
				break
			}
			p := enabled[rng.IntN(len(enabled))]
			if sys.CrashCount() == 0 && rng.IntN(10) == 0 {
				_, err = sys.Crash(p)
			} else {
				_, err = sys.Step(p, 0)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRefExploreMatchesRun checks that the reference explorer reaches
// exactly the states, edges and terminals explore.Run does.
func TestRefExploreMatchesRun(t *testing.T) {
	sys, ids := n2System(t)
	for _, cfg := range n2Configs {
		opts, err := cfg.Options(ids)
		if err != nil {
			t.Fatal(err)
		}
		want := mustCheck(t, sys, opts)
		var timing RefTiming
		got, err := RefExplore(sys, cfg, t.TempDir(), &timing)
		if err != nil {
			t.Fatal(err)
		}
		if int(got.States) != want.States || int(got.Edges) != want.Edges || int(got.Terminals) != want.Terminals {
			t.Errorf("%+v: reference explorer %d/%d/%d, explore.Run %d/%d/%d (states/edges/terminals)", cfg,
				got.States, got.Edges, got.Terminals, want.States, want.Edges, want.Terminals)
		}
		if int(got.Pruned) != want.Pruned {
			t.Errorf("%+v: reference explorer pruned %d, explore.Run %d", cfg, got.Pruned, want.Pruned)
		}
		if timing.Step.sampled == 0 || timing.Insert.sampled == 0 || timing.Pop.sampled == 0 {
			t.Errorf("%+v: reference explorer timed nothing", cfg)
		}
	}
}

// TestDrawIsSeeded checks that a seed always draws the same wirings, that
// draws are size-matched and distinct, and that seeds vary the draw.
func TestDrawIsSeeded(t *testing.T) {
	ans, err := LoadAnswers()
	if err != nil {
		t.Fatal(err)
	}
	pool := Pool()
	for _, wl := range Workloads {
		seen := map[string]bool{}
		for seed := uint64(1); seed <= 10; seed++ {
			a, err := Draw(seed, wl, pool, ans)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Draw(seed, wl, pool, ans)
			if err != nil {
				t.Fatal(err)
			}
			key := func(ws []Wiring) []string {
				var out []string
				for _, w := range ws {
					out = append(out, w.String())
				}
				return out
			}
			if !slices.Equal(key(a), key(b)) {
				t.Fatalf("%s seed %d drew %v, then %v", wl.Name, seed, key(a), key(b))
			}
			if len(a) != wl.Draw {
				t.Fatalf("%s seed %d drew %d wirings, want %d", wl.Name, seed, len(a), wl.Draw)
			}
			distinct := slices.Compact(slices.Sorted(slices.Values(key(a))))
			if len(distinct) != len(a) {
				t.Fatalf("%s seed %d drew a wiring twice: %v", wl.Name, seed, key(a))
			}
			total := 0
			for _, w := range a {
				known, _ := ans.Lookup(wl.Name, w)
				total += known.States
			}
			if d := float64(total)/float64(wl.Target) - 1; d < -drawTolerance || d > drawTolerance {
				t.Fatalf("%s seed %d drew %d states, want %d within %.0f%%", wl.Name, seed, total, wl.Target, 100*drawTolerance)
			}
			seen[strings.Join(key(a), ",")] = true
		}
		if len(seen) < 2 {
			t.Errorf("%s: ten seeds drew one wiring set", wl.Name)
		}
	}
}

// TestAnswersCoverPool checks the known-answer table has one answer per
// pooled wiring and workload, with the workload's configuration.
func TestAnswersCoverPool(t *testing.T) {
	ans, err := LoadAnswers()
	if err != nil {
		t.Fatal(err)
	}
	pool := Pool()
	if len(pool) != 36 {
		t.Fatalf("pool has %d wirings, want 36", len(pool))
	}
	for _, wl := range Workloads {
		for _, w := range pool {
			a, ok := ans.Lookup(wl.Name, w)
			if !ok || a.States == 0 {
				t.Errorf("%s: no answer for wiring %s", wl.Name, w)
			}
		}
		for _, wa := range ans.Workloads {
			if wa.Name == wl.Name && wa.Config != wl.Cfg {
				t.Errorf("%s: answers were made under %+v, workload runs %+v", wl.Name, wa.Config, wl.Cfg)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(tc.in)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestJudge covers each verdict of the compare rule.
func TestJudge(t *testing.T) {
	spec := MetricSpec{Name: "check_s", Better: "lower", Bound: 0.1}
	pairs := func(a, b []float64) [][2]float64 {
		var out [][2]float64
		for i := range a {
			out = append(out, [2]float64{a[i], b[i]})
		}
		return out
	}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	same := []float64{1.01, 1.00, 1.00, 0.99, 1.02, 0.98, 1.00, 1.01, 1.00, 0.99}
	faster := []float64{0.80, 0.81, 0.79, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80, 0.82}
	slower := []float64{1.20, 1.21, 1.19, 1.22, 1.18, 1.20, 1.21, 1.19, 1.20, 1.22}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 1.0, 1.05}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"same", same, Unchanged},
		{"faster", faster, Better},
		{"slower", slower, Worse},
		{"noisy", noisy, Unresolved},
	} {
		if got := Judge(spec, base, tc.change, pairs(base, tc.change)); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	higher := MetricSpec{Name: "states_per_s", Better: "higher", Bound: 0.1}
	if got := Judge(higher, base, slower, pairs(base, slower)); got != Better {
		t.Errorf("higher-is-better gain: %s, want %s", got, Better)
	}
}

// writeRecords writes one record per value of check_s, all on host, to a
// JSON-lines file and returns its path.
func writeRecords(t *testing.T, host Host, values ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.jsonl")
	for i, v := range values {
		rec := Record{
			Provenance: Provenance{Workload: "snap3-sym", Seed: uint64(i + 1), Host: host},
			Summary:    Summary{Correct: true, Attempted: 1, Metrics: map[string]Metric{"check_s": {v, "s"}}},
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := appendLine(path, line); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// TestCompare checks compare mode's rows and its refusal to compare
// across host classes.
func TestCompare(t *testing.T) {
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "check_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	host := Host{CPUModel: "cpu", NumCPU: 2, GOMAXPROCS: 2, GOOS: "linux", GOARCH: "amd64"}
	base := writeRecords(t, host, 1.00, 1.01, 0.99, 1.02, 0.98)
	change := writeRecords(t, host, 0.70, 0.71, 0.69, 0.72, 0.68)
	var out strings.Builder
	if err := Compare(&out, spec, base, change); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "snap3-sym") || !strings.Contains(out.String(), Better) {
		t.Errorf("compare output lacks a better check_s row:\n%s", out.String())
	}
	other := host
	other.NumCPU = 4
	if err := Compare(io.Discard, spec, base, writeRecords(t, other, 1.0)); err == nil {
		t.Error("compare accepted records from another host class")
	}
}
