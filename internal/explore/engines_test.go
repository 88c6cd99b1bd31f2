package explore

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// engineCase is one system the engine-equivalence tests run on, with the
// (engine-independent) exploration options it needs to stay small.
type engineCase struct {
	sys  *machine.System
	opts Options
}

// engineRun is one engine configuration the equivalence tests sweep.
// "bfs" is ParallelEngine with a single worker: its one frontier shard is
// a FIFO queue, so it searches in serial breadth-first order and yields
// exact BFS depths and shortest counterexample traces — the
// breadth-first reference.
type engineRun struct {
	name    string
	engine  Engine
	workers int
}

var (
	bfsRun      = engineRun{"bfs", ParallelEngine, 1}
	dfsRun      = engineRun{"dfs", DFSEngine, 0}
	parallelRun = engineRun{"parallel", ParallelEngine, 4}
	engineRuns  = []engineRun{bfsRun, dfsRun, parallelRun}
)

// with returns opts set to run on r.
func (r engineRun) with(opts Options) Options {
	opts.Engine = r.engine
	opts.Workers = r.workers
	return opts
}

// engineSystems builds the small systems the engine-equivalence tests run
// on: 2-processor snapshot systems (nondeterministic, over every
// canonical wiring), a 3-processor snapshot system cut down by a
// depth-independent prune (full exploration is ~10⁸ states), and the
// never-terminating write-scan loop (a cyclic state graph).
func engineSystems(t *testing.T) map[string]engineCase {
	t.Helper()
	out := map[string]engineCase{}
	for perms := range Wirings(2, 2, WiringOptions{Filter: FilterProc0}) {
		sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Wirings: perms, Nondet: true})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("snapshot-n2-%v", perms[1])] = engineCase{sys: sys}
	}
	sys3, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	// Views only grow, so pruning on view size is a function of the state
	// alone — every engine cuts the exact same subtree.
	prune3 := func(n Node) bool {
		for _, m := range n.Sys.Procs {
			if v, ok := m.(core.Viewer); ok && v.View().Len() >= 2 {
				return true
			}
		}
		return false
	}
	out["snapshot-n3-pruned"] = engineCase{sys: sys3, opts: Options{Prune: prune3}}
	ws, _, err := core.NewWriteScanSystem(core.Config{Inputs: []string{"a", "b"}, Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out["writescan-n2"] = engineCase{sys: ws}
	return out
}

// TestParallelMatchesBFS is the engine-equivalence test: on every small
// system, ParallelEngine at several worker counts must visit exactly the
// states of the one-worker breadth-first reference — same visited set,
// edges, terminals, pruned count and BFS MaxDepth.
func TestParallelMatchesBFS(t *testing.T) {
	for name, c := range engineSystems(t) {
		sys := c.sys
		t.Run(name, func(t *testing.T) {
			ropts, rset := recordVisited(t, sys, bfsRun.with(c.opts))
			ref, err := Run(sys.Clone(), ropts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.States == 0 || ref.Truncated {
				t.Fatalf("degenerate reference run: %+v", ref)
			}
			want := keyOf(ref, rset)
			for _, workers := range []int{2, 4} {
				popts := c.opts
				popts.Engine = ParallelEngine
				popts.Workers = workers
				popts, pset := recordVisited(t, sys, popts)
				got, err := Run(sys.Clone(), popts)
				if err != nil {
					t.Fatal(err)
				}
				if k := keyOf(got, pset); k != want {
					t.Errorf("workers=%d: %+v, want %+v", workers, k, want)
				}
			}
		})
	}
}

// TestParallelInvariantAgreesWithSerial: every engine configuration must
// report a violated invariant with a counterexample trace (the parallel
// trace is replay-checked below).
func TestParallelInvariantAgreesWithSerial(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("done processor observed")
	inv := func(n Node) error {
		if n.Sys.DoneCount() > 0 {
			return boom
		}
		return nil
	}
	for _, r := range engineRuns {
		_, err := Run(sys.Clone(), r.with(Options{Invariant: inv, Traces: true}))
		var ie *InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: expected InvariantError, got %v", r.name, err)
		}
		if !errors.Is(err, boom) {
			t.Errorf("%s: unwrap failed", r.name)
		}
		if len(ie.Trace) == 0 {
			t.Errorf("%s: empty counterexample trace", r.name)
		}
	}
}

// TestParallelCounterexampleReplays replays the parallel engine's
// counterexample trace step by step from the initial state and asserts it
// reaches a state that really violates the invariant.
func TestParallelCounterexampleReplays(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("two outputs")
	inv := func(n Node) error {
		if n.Sys.DoneCount() >= 2 {
			return boom
		}
		return nil
	}
	_, err = Run(sys.Clone(), Options{Engine: ParallelEngine, Workers: 4, Invariant: inv, Traces: true})
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("expected InvariantError, got %v", err)
	}
	replay := sys.Clone()
	for i, info := range ie.Trace {
		if replay.DoneCount() >= 2 {
			t.Fatalf("invariant already violated before step %d of %d", i, len(ie.Trace))
		}
		if _, err := replay.Step(info.Proc, info.Choice); err != nil {
			t.Fatalf("trace does not replay at step %d: %v", i, err)
		}
	}
	if replay.DoneCount() < 2 {
		t.Fatalf("replayed trace does not violate the invariant: DoneCount=%d", replay.DoneCount())
	}
}

// TestParallelStatsInternallyConsistent pins the bookkeeping identities a
// complete (untruncated, unpruned) run must satisfy: every discovered
// state is expanded by exactly one worker, every generated successor is
// one dedup lookup, and every lookup that was not a new state is a hit.
func TestParallelStatsInternallyConsistent(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys.Clone(), Options{Engine: ParallelEngine, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Engine != ParallelEngine || res.Stats.Workers != 3 {
		t.Errorf("stats engine/workers = %v/%d", res.Stats.Engine, res.Stats.Workers)
	}
	var expanded int64
	for _, n := range res.Stats.WorkerSteps {
		expanded += n
	}
	if expanded != int64(res.States) {
		t.Errorf("worker steps sum %d != states %d", expanded, res.States)
	}
	if res.Stats.DedupLookups != int64(res.Edges)+1 {
		t.Errorf("dedup lookups %d != edges+1 %d", res.Stats.DedupLookups, res.Edges+1)
	}
	if res.Stats.DedupHits != int64(res.Edges)-int64(res.States)+1 {
		t.Errorf("dedup hits %d != edges-states+1 %d", res.Stats.DedupHits, res.Edges-res.States+1)
	}
	if res.Stats.WallTime <= 0 || res.Stats.StatesPerSec <= 0 {
		t.Errorf("wall/rate not recorded: %+v", res.Stats)
	}
	if res.Stats.FrontierPeak <= 0 {
		t.Error("frontier peak not recorded")
	}
}

// TestSerialStatsRecorded checks the serial configurations (DFS and the
// one-worker breadth-first reference) fill the same Stats block.
func TestSerialStatsRecorded(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []engineRun{bfsRun, dfsRun} {
		res, err := Run(sys.Clone(), r.with(Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Engine != r.engine || res.Stats.Workers != 1 {
			t.Errorf("%s: stats engine/workers = %v/%d", r.name, res.Stats.Engine, res.Stats.Workers)
		}
		if len(res.Stats.WorkerSteps) != 1 || res.Stats.WorkerSteps[0] == 0 {
			t.Errorf("%s: worker steps %v", r.name, res.Stats.WorkerSteps)
		}
		if res.Stats.DedupLookups == 0 || res.Stats.DedupHits == 0 || res.Stats.DedupHitRate <= 0 {
			t.Errorf("%s: dedup counters empty: %+v", r.name, res.Stats)
		}
		if res.Stats.FrontierPeak <= 0 || res.Stats.StatesPerSec <= 0 {
			t.Errorf("%s: stats incomplete: %+v", r.name, res.Stats)
		}
	}
}

// TestRunCapabilityChecks: option/engine mismatches are uniform
// *UnsupportedOptionError values naming the engine, and an Engine value
// outside the two engines is rejected before any search starts.
func TestRunCapabilityChecks(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{DFSEngine, ParallelEngine} {
		_, err := Run(sys.Clone(), Options{Engine: engine, Resume: "ck", Traces: true})
		var ue *UnsupportedOptionError
		if !errors.As(err, &ue) {
			t.Fatalf("%v+Resume+Traces: expected UnsupportedOptionError, got %v", engine, err)
		}
		if ue.Engine != engine || ue.Store != "" || ue.Option != "Resume with Traces" {
			t.Errorf("%v: error fields %+v", engine, ue)
		}
	}
	if _, err := Run(sys.Clone(), Options{Engine: ParallelEngine + 1}); err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("out-of-range engine: err = %v, want unknown engine", err)
	}
}

// TestParallelTruncation: the state bound stops the parallel engine and
// is reported.
func TestParallelTruncation(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys.Clone(), Options{Engine: ParallelEngine, Workers: 4, MaxStates: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("not truncated")
	}
}

// TestParallelPruneMatchesSerial: with a depth-independent prune, the
// engines agree on state and pruned counts.
func TestParallelPruneMatchesSerial(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	prune := func(n Node) bool { return n.Sys.DoneCount() > 0 }
	ref, err := Run(sys.Clone(), bfsRun.with(Options{Prune: prune}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(sys.Clone(), Options{Engine: ParallelEngine, Workers: 4, Prune: prune})
	if err != nil {
		t.Fatal(err)
	}
	if got.States != ref.States || got.Pruned != ref.Pruned {
		t.Errorf("states/pruned %d/%d, want %d/%d", got.States, got.Pruned, ref.States, ref.Pruned)
	}
}

// TestParseEngine covers the flag-level engine names: the two engines
// parse, the empty string is the zero value (DFS), and the retired bfs
// and auto names are rejected with an error naming the valid ones.
func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{
		"": DFSEngine, "dfs": DFSEngine, "parallel": ParallelEngine, "par": ParallelEngine,
	} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"bogus", "bfs", "auto"} {
		_, err := ParseEngine(s)
		if err == nil {
			t.Errorf("engine %q accepted", s)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "dfs") || !strings.Contains(msg, "parallel") {
			t.Errorf("ParseEngine(%q) error %q does not name dfs and parallel", s, msg)
		}
	}
	var zero Engine
	if zero != DFSEngine || DFSEngine.String() != "dfs" || ParallelEngine.String() != "parallel" {
		t.Errorf("zero=%v, String = %q, %q", zero, DFSEngine, ParallelEngine)
	}
}

// TestEngineFlagValue: Engine implements flag.Value, so cmd binaries can
// register it with flag.Var directly.
func TestEngineFlagValue(t *testing.T) {
	var e Engine
	var _ flag.Value = &e
	if err := e.Set("parallel"); err != nil || e != ParallelEngine {
		t.Errorf("Set(parallel) = %v, e=%v", err, e)
	}
	if err := e.Set("bogus"); err == nil {
		t.Error("Set(bogus) accepted")
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var got Engine
	fs.Var(&got, "engine", "")
	if err := fs.Parse([]string{"-engine", "dfs"}); err != nil || got != DFSEngine {
		t.Errorf("flag parse: err=%v got=%v", err, got)
	}
}

// TestWiringFilterFlagValue: WiringFilter round-trips through flag.Value.
func TestWiringFilterFlagValue(t *testing.T) {
	var f WiringFilter
	var _ flag.Value = &f
	for s, want := range map[string]WiringFilter{
		"all": FilterAll, "proc0": FilterProc0, "orbits": FilterOrbits,
	} {
		if err := f.Set(s); err != nil || f != want {
			t.Errorf("Set(%q) = %v, f=%v", s, err, f)
		}
		if f.String() != s {
			t.Errorf("String() = %q, want %q", f.String(), s)
		}
	}
	if err := f.Set("bogus"); err == nil {
		t.Error("Set(bogus) accepted")
	}
}

// TestChecksAcceptEngines: the packaged sweeps take an engine and report
// identical totals across engines; engines that cannot answer the
// question are rejected uniformly.
func TestChecksAcceptEngines(t *testing.T) {
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0}
	ref, err := CheckSnapshotSafety(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []engineRun{bfsRun, parallelRun} {
		c := base
		c.Engine, c.Workers = r.engine, r.workers
		sweep, err := CheckSnapshotSafety(c)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if sweep.TotalStates != ref.TotalStates || sweep.TotalEdges != ref.TotalEdges || sweep.Terminals != ref.Terminals {
			t.Errorf("%s: sweep %+v, want totals of %+v", r.name, sweep, ref)
		}
		if sweep.Stats.Engine != r.engine || sweep.Stats.WallTime <= 0 {
			t.Errorf("%s: sweep stats not merged: %+v", r.name, sweep.Stats)
		}
	}

	// Wait-freedom runs on both engines: DFS checks cycles inline, and
	// both check the solo-bound invariant — which is all the parallel
	// engine runs.
	for _, engine := range []Engine{DFSEngine, ParallelEngine} {
		c := base
		c.Engine = engine
		if _, err := CheckSnapshotWaitFree(c); err != nil {
			t.Errorf("waitfree with %v: %v", engine, err)
		}
	}

	// The witness search runs on any engine; at N=2 all prove atomicity.
	for _, engine := range []Engine{DFSEngine, ParallelEngine} {
		w := SnapshotConfig{Inputs: []string{"a", "b"}, Wirings: FilterProc0, Engine: engine, Workers: 2}
		r, err := FindNonAtomicityWitness(w)
		if err != nil {
			t.Fatalf("witness with %v: %v", engine, err)
		}
		if r.Found || !r.Exhaustive {
			t.Errorf("witness with %v: %+v", engine, r)
		}
	}

	// Consensus sweep on the parallel engine matches the serial totals.
	cref, err := CheckConsensusBounded(ConsensusConfig{Inputs: []string{"x", "y"}, MaxTimestamp: 2, Wirings: FilterProc0})
	if err != nil {
		t.Fatal(err)
	}
	cpar, err := CheckConsensusBounded(ConsensusConfig{
		Inputs: []string{"x", "y"}, MaxTimestamp: 2, Wirings: FilterProc0,
		Engine: ParallelEngine, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cpar.TotalStates != cref.TotalStates || cpar.Terminals != cref.Terminals {
		t.Errorf("consensus parallel sweep %+v, want totals of %+v", cpar, cref)
	}
}

// TestFPTable exercises the parallel engine's visited set through the
// store layer, including growth well past the initial capacity, the
// zero-fingerprint substitution and depth min-merging.
func TestFPTable(t *testing.T) {
	st, err := store.Open(store.Config{Kind: store.Mem, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tbl, err := st.NewVisited(true)
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	const n = 100_000
	rng := uint64(0x243f6a8885a308d3)
	fps := make([]uint64, n)
	for i := range fps {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		fps[i] = rng
	}
	for _, fp := range fps {
		if fresh, _, _ := tbl.Insert(fp, 3); !fresh {
			t.Fatalf("fresh fingerprint %#x reported as duplicate", fp)
		}
	}
	for _, fp := range fps {
		fresh, improved, _ := tbl.Insert(fp, 3)
		if fresh {
			t.Fatalf("known fingerprint %#x reported as fresh", fp)
		}
		if improved {
			t.Fatalf("equal depth reported as improvement for %#x", fp)
		}
	}
	if fresh, _, _ := tbl.Insert(0, 5); !fresh {
		t.Error("zero fingerprint not inserted")
	}
	if fresh, improved, _ := tbl.Insert(0, 2); fresh || !improved {
		t.Errorf("zero fingerprint re-insert: fresh=%v improved=%v, want dup+improved", fresh, improved)
	}
	if got := tbl.Len(); got != int64(n+1) {
		t.Fatalf("Len() = %d, want %d", got, n+1)
	}
	if got := tbl.MaxDepth(); got != 3 {
		t.Fatalf("MaxDepth() = %d, want 3", got)
	}
}
