package explore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// These tests pin the out-of-core story end to end: the disk tier must
// be observationally identical to the historical in-RAM search (same
// counters, visited sets and verdicts, on every engine and symmetry
// level), and a run killed mid-search must resume from its checkpoint to
// the exact totals and visited set an uninterrupted run produces.

// tinyMemLimit forces the disk tier to actually spill on the small test
// systems (the hot table floors at store's minimum, well under these
// state counts).
const tinyMemLimit = store.Bytes(1 << 16)

// diskOpts returns opts switched to the disk tier with a tiny ceiling.
func diskOpts(t *testing.T, opts Options) Options {
	t.Helper()
	opts.Store = store.Disk
	opts.StoreDir = t.TempDir()
	opts.MemLimit = tinyMemLimit
	return opts
}

// TestDiskMatchesMem is the store-equivalence test: on every small
// system and every engine configuration, the disk tier under a
// spill-forcing memory ceiling must report exactly the counters and
// visited set of the in-RAM store.
func TestDiskMatchesMem(t *testing.T) {
	for name, c := range engineSystems(t) {
		c := c
		t.Run(name, func(t *testing.T) {
			for _, r := range engineRuns {
				mopts, mset := recordVisited(t, c.sys, r.with(c.opts))
				ref, err := Run(c.sys.Clone(), mopts)
				if err != nil {
					t.Fatalf("%s mem: %v", r.name, err)
				}
				dopts, dset := recordVisited(t, c.sys, diskOpts(t, r.with(c.opts)))
				got, err := Run(c.sys.Clone(), dopts)
				if err != nil {
					t.Fatalf("%s disk: %v", r.name, err)
				}
				if gk, rk := keyOf(got, dset), keyOf(ref, mset); gk != rk {
					t.Errorf("%s: disk %+v, mem %+v", r.name, gk, rk)
				}
				if got.Stats.StoreKind != "disk" {
					t.Errorf("%s: StoreKind = %q, want disk", r.name, got.Stats.StoreKind)
				}
				// The hot table floors at 4096 slots and flushes at
				// half-full, so any run past that many states must have
				// spilled — otherwise the ceiling was never exercised.
				if got.States >= 4096 && got.Stats.Store.Spills == 0 {
					t.Errorf("%s: ceiling %d never spilled (states=%d); equivalence untested",
						r.name, tinyMemLimit, got.States)
				}
			}
		})
	}
}

// TestDiskMatchesMemUnderSymmetry repeats the store-equivalence check on
// every symmetry level: canonical fingerprints flow through the same
// spill/merge path as exact ones, and the reduced counts and visited
// sets must agree between tiers on every engine configuration.
func TestDiskMatchesMemUnderSymmetry(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "a"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
		for _, r := range engineRuns {
			base := r.with(Options{Canonicalizer: sym.Canonicalizer()})
			mopts, mset := recordVisited(t, sys, base)
			ref, err := Run(sys.Clone(), mopts)
			if err != nil {
				t.Fatalf("%s/%v mem: %v", r.name, sym, err)
			}
			dopts, dset := recordVisited(t, sys, diskOpts(t, base))
			got, err := Run(sys.Clone(), dopts)
			if err != nil {
				t.Fatalf("%s/%v disk: %v", r.name, sym, err)
			}
			if gk, rk := keyOf(got, dset), keyOf(ref, mset); gk != rk {
				t.Errorf("%s/%v: disk %+v, mem %+v", r.name, sym, gk, rk)
			}
		}
	}
}

// cancelAfter closes a cancel channel after n progress callbacks. Safe
// under the parallel engine's concurrent progress calls.
func cancelAfter(n int) (<-chan struct{}, func(states, edges int)) {
	ch := make(chan struct{})
	var once sync.Once
	calls := 0
	var mu sync.Mutex
	return ch, func(states, edges int) {
		mu.Lock()
		calls++
		fire := calls >= n
		mu.Unlock()
		if fire {
			once.Do(func() { close(ch) })
		}
	}
}

// TestKillAndResume hard-cancels every engine configuration mid-run,
// then resumes from the checkpoint and demands the exact totals of an
// uninterrupted run, and that the two halves together discovered exactly
// its visited set.
func TestKillAndResume(t *testing.T) {
	for _, kind := range []store.Kind{store.Mem, store.Disk} {
		for _, r := range engineRuns {
			engine := r.engine
			t.Run(kind.String()+"/"+r.name, func(t *testing.T) {
				sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
				if err != nil {
					t.Fatal(err)
				}
				opts := r.with(Options{})
				if kind == store.Disk {
					opts = diskOpts(t, opts)
				}
				refOpts, refSet := recordVisited(t, sys, opts)
				ref, err := Run(sys.Clone(), refOpts)
				if err != nil {
					t.Fatal(err)
				}
				if ref.States < 200 {
					t.Fatalf("reference run too small to kill mid-flight: %d states", ref.States)
				}
				// The parallel engine's cancel races only open when
				// workers truly run at once, so it is pinned to one core
				// and to two.
				procs := []int{runtime.GOMAXPROCS(0)}
				if engine == ParallelEngine {
					procs = []int{1, 2}
				}
				for _, n := range procs {
					old := runtime.GOMAXPROCS(n)
					killAndResume(t, sys, opts, keyOf(ref, refSet))
					runtime.GOMAXPROCS(old)
				}
			})
		}
	}
}

// killAndResume cancels a checkpointed run halfway, resumes it, and
// checks the resumed totals against the uninterrupted reference. The
// resumed run discovers only the states the killed one had not, so the
// union of the two runs' visited sets must be the reference set.
func killAndResume(t *testing.T, sys *machine.System, opts Options, ref resultKey) {
	t.Helper()
	dir := t.TempDir()
	killed, killedSet := recordVisited(t, sys, opts)
	killed.Checkpoint = dir
	killed.CheckpointEvery = 50
	killed.ProgressEvery = 1
	killed.Cancel, killed.Progress = cancelAfter(ref.states / 2)
	if _, err := Run(sys.Clone(), killed); !errors.Is(err, ErrCanceled) {
		t.Fatalf("GOMAXPROCS=%d: killed run: err = %v, want ErrCanceled", runtime.GOMAXPROCS(0), err)
	}

	resumed, resumedSet := recordVisited(t, sys, opts)
	resumed.Resume = dir
	resumed.Checkpoint = dir
	resumed.CheckpointEvery = 50
	got, err := Run(sys.Clone(), resumed)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: resumed run: %v", runtime.GOMAXPROCS(0), err)
	}
	if k := keyOf(got, killedSet.union(resumedSet)); k != ref {
		t.Errorf("GOMAXPROCS=%d: killed+resumed %+v, uninterrupted %+v", runtime.GOMAXPROCS(0), k, ref)
	}
}

// TestResumeRejectsVersion1Checkpoint: fingerprints changed encoding in
// checkpoint format 2, so a format-1 checkpoint must be refused with the
// format-version error rather than resumed against incomparable
// fingerprints.
func TestResumeRejectsVersion1Checkpoint(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Engine: ParallelEngine, Workers: 1, Checkpoint: dir, CheckpointEvery: 50, ProgressEvery: 1}
	opts.Cancel, opts.Progress = cancelAfter(200)
	if _, err := Run(sys.Clone(), opts); !errors.Is(err, ErrCanceled) {
		t.Fatalf("killed run: err = %v, want ErrCanceled", err)
	}
	metaPath := filepath.Join(dir, "meta.json")
	blob, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(blob, &meta); err != nil {
		t.Fatal(err)
	}
	if meta["version"] != float64(store.MetaVersion) {
		t.Fatalf("checkpoint version %v, want %d", meta["version"], store.MetaVersion)
	}
	meta["version"] = 1
	if blob, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(sys.Clone(), Options{Engine: ParallelEngine, Workers: 1, Resume: dir})
	if err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("resume of a version-1 checkpoint: err = %v, want the format-version error", err)
	}
}

// TestResumeReproducesViolation: a run canceled before it reaches an
// invariant violation must, on resume, report the same violation an
// uninterrupted run does.
func TestResumeReproducesViolation(t *testing.T) {
	boom := errors.New("all processors terminated")
	inv := func(n Node) error {
		if n.Sys.DoneCount() == len(n.Sys.Procs) {
			return boom
		}
		return nil
	}
	for _, r := range engineRuns {
		t.Run(r.name, func(t *testing.T) {
			sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
			if err != nil {
				t.Fatal(err)
			}
			opts := r.with(Options{Invariant: inv})
			ref, err := Run(sys.Clone(), opts)
			if !errors.Is(err, boom) {
				t.Fatalf("reference run: err = %v, want the planted violation", err)
			}

			dir := t.TempDir()
			killed := opts
			killed.Checkpoint = dir
			killed.CheckpointEvery = 10
			killed.ProgressEvery = 1
			killed.Cancel, killed.Progress = cancelAfter(20)
			_, kerr := Run(sys.Clone(), killed)
			if errors.Is(kerr, boom) {
				// The violation surfaced before the cancel threshold (DFS
				// dives deep immediately); the verdict already matches.
				return
			}
			if !errors.Is(kerr, ErrCanceled) {
				t.Fatalf("killed run: err = %v, want ErrCanceled or the violation", kerr)
			}

			resumed := opts
			resumed.Resume = dir
			got, rerr := Run(sys.Clone(), resumed)
			if !errors.Is(rerr, boom) {
				t.Fatalf("resumed run: err = %v, want the planted violation", rerr)
			}
			var ie *InvariantError
			if !errors.As(rerr, &ie) {
				t.Fatalf("resumed run: err = %T, want *InvariantError", rerr)
			}
			if r.workers <= 1 && got.States != ref.States {
				// Serial searches are deterministic, so the resumed search
				// must stop at exactly the reference witness.
				t.Errorf("resumed run found the violation at state %d, reference at %d", got.States, ref.States)
			}
		})
	}
}

// TestSweepKillAndResume kills a wiring sweep mid-flight and resumes it:
// completed wirings are skipped, the in-flight one resumes from its run
// checkpoint, and the aggregate totals match an uninterrupted sweep.
func TestSweepKillAndResume(t *testing.T) {
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0, Engine: ParallelEngine, Workers: 1}
	ref, err := CheckSnapshotSafety(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Wirings < 2 || ref.TotalStates < 400 {
		t.Fatalf("reference sweep too small to kill mid-flight: %+v", ref)
	}

	dir := t.TempDir()
	killed := base
	killed.Checkpoint = dir
	killed.CheckpointEvery = 50
	killed.ProgressEvery = 1
	// Fire inside the second half of the sweep's total work so at least
	// one wiring has completed and one is in flight.
	killed.Cancel, killed.Progress = cancelAfter(ref.TotalStates * 3 / 4)
	if _, err := CheckSnapshotSafety(killed); !errors.Is(err, ErrCanceled) {
		t.Fatalf("killed sweep: err = %v, want ErrCanceled", err)
	}

	resumed := base
	resumed.Resume = dir
	resumed.Checkpoint = dir
	resumed.CheckpointEvery = 50
	got, err := CheckSnapshotSafety(resumed)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if got.Wirings != ref.Wirings || got.TotalStates != ref.TotalStates ||
		got.TotalEdges != ref.TotalEdges || got.MaxStates != ref.MaxStates ||
		got.Terminals != ref.Terminals || got.Truncated != ref.Truncated {
		t.Errorf("resumed sweep %+v, uninterrupted %+v", got, ref)
	}
}

// TestOptionsValidation is the table of option combinations no
// engine/store pair can honor; each must be rejected up front with an
// *UnsupportedOptionError naming the offender.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name   string
		opts   Options
		option string
	}{
		{"mem+MemLimit", Options{MemLimit: 1 << 20}, "MemLimit"},
		{"mem+StoreDir", Options{StoreDir: "/tmp/x"}, "StoreDir"},
		{"resume+Traces", Options{Resume: "ck", Traces: true}, "Resume with Traces"},
	}
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(sys.Clone(), tc.opts)
			var ue *UnsupportedOptionError
			if !errors.As(err, &ue) {
				t.Fatalf("err = %v, want *UnsupportedOptionError", err)
			}
			if ue.Option != tc.option {
				t.Errorf("rejected option %q, want %q", ue.Option, tc.option)
			}
			if ue.Hint == "" {
				t.Error("rejection carries no hint")
			}
		})
	}
}

// TestResumeMismatchRejected: resuming a checkpoint under a different
// identity (engine, symmetry, system, crash budget) must fail with a
// *CheckpointMismatchError instead of silently corrupting the search.
func TestResumeMismatchRejected(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	killed := Options{Engine: ParallelEngine, Workers: 1, Checkpoint: dir, CheckpointEvery: 10, ProgressEvery: 1}
	killed.Cancel, killed.Progress = cancelAfter(30)
	if _, err := Run(sys.Clone(), killed); !errors.Is(err, ErrCanceled) {
		t.Fatalf("killed run: err = %v, want ErrCanceled", err)
	}

	cases := []struct {
		name  string
		opts  Options
		field string
	}{
		{"engine", Options{Engine: DFSEngine, Resume: dir}, "engine"},
		{"symmetry", Options{Engine: ParallelEngine, Workers: 1, Resume: dir, Canonicalizer: canon.ProcSymmetry{}}, "symmetry"},
		{"maxCrashes", Options{Engine: ParallelEngine, Workers: 1, Resume: dir, MaxCrashes: 1}, "maxCrashes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(sys.Clone(), tc.opts)
			var me *CheckpointMismatchError
			if !errors.As(err, &me) {
				t.Fatalf("err = %v, want *CheckpointMismatchError", err)
			}
			if me.Field != tc.field {
				t.Errorf("mismatch on field %q, want %q", me.Field, tc.field)
			}
		})
	}
	t.Run("system", func(t *testing.T) {
		other, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(other, Options{Engine: ParallelEngine, Workers: 1, Resume: dir})
		var me *CheckpointMismatchError
		if !errors.As(err, &me) {
			t.Fatalf("err = %v, want *CheckpointMismatchError", err)
		}
		if me.Field != "initial-state fingerprint" {
			t.Errorf("mismatch on field %q, want initial-state fingerprint", me.Field)
		}
	})
}

// TestSweepResumeMismatchRejected: a sweep checkpoint likewise pins the
// sweep identity.
func TestSweepResumeMismatchRejected(t *testing.T) {
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0, Engine: ParallelEngine, Workers: 1}
	dir := t.TempDir()
	ck := base
	ck.Checkpoint = dir
	if _, err := CheckSnapshotSafety(ck); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.Resume = dir
	bad.Engine = DFSEngine
	_, err := CheckSnapshotSafety(bad)
	var me *CheckpointMismatchError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want *CheckpointMismatchError", err)
	}
	if me.Field != "engine" {
		t.Errorf("mismatch on field %q, want engine", me.Field)
	}
	// A completed sweep resumes to a no-op with identical totals.
	ref, err := CheckSnapshotSafety(base)
	if err != nil {
		t.Fatal(err)
	}
	again := base
	again.Resume = dir
	got, err := CheckSnapshotSafety(again)
	if err != nil {
		t.Fatalf("resume of completed sweep: %v", err)
	}
	if got.Wirings != ref.Wirings || got.TotalStates != ref.TotalStates {
		t.Errorf("resume of completed sweep reran work: %+v, want %+v", got, ref)
	}
}

// TestSweepResumeIdentity: a sweep checkpoint pins the whole resolved
// Identity, not just part of it. A complete FilterAll sweep (4 wirings)
// resumed under FilterOrbits, a different state bound or a different
// termination level would otherwise skip every wiring and report the
// checkpoint's totals as the requested search's; each must instead fail
// naming the differing field. A sweep.json of the previous format,
// which recorded only part of the identity, is refused by version.
func TestSweepResumeIdentity(t *testing.T) {
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterAll}
	dir := t.TempDir()
	ck := base
	ck.Checkpoint = dir
	if _, err := CheckSnapshotSafety(ck); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field  string
		change func(*SnapshotConfig)
	}{
		{"wirings", func(c *SnapshotConfig) { c.Wirings = FilterOrbits }},
		{"maxStates", func(c *SnapshotConfig) { c.MaxStates = 100 }},
		{"level", func(c *SnapshotConfig) { c.Level = 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			bad := base
			bad.Resume = dir
			tc.change(&bad)
			got, err := CheckSnapshotSafety(bad)
			var me *CheckpointMismatchError
			if !errors.As(err, &me) {
				t.Fatalf("resume succeeded with %d wirings, %d states (err = %v), want *CheckpointMismatchError", got.Wirings, got.TotalStates, err)
			}
			if me.Field != tc.field {
				t.Errorf("mismatch on field %q, want %q", me.Field, tc.field)
			}
		})
	}
	// Level 0 resolves to N: the same search, so the resume is a no-op.
	same := base
	same.Resume = dir
	same.Level = len(base.Inputs)
	if got, err := CheckSnapshotSafety(same); err != nil || got.Wirings != 4 {
		t.Fatalf("resume under the resolved default level: %+v, err = %v", got, err)
	}

	t.Run("version", func(t *testing.T) {
		old := t.TempDir()
		blob := `{"version":1,"check":"safety","engine":"dfs","symmetry":"none","inputs":["a","b"],"nondet":true,"maxCrashes":0,"completed":4}`
		if err := os.WriteFile(sweepMetaPath(old), []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		bad := base
		bad.Resume = old
		_, err := CheckSnapshotSafety(bad)
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("resume of a version-1 sweep.json: err = %v, want the version error", err)
		}
	})
}
