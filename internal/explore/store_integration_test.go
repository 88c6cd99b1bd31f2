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
// counters, same verdicts, on every engine and symmetry level), and a
// run killed mid-search must resume from its checkpoint to the exact
// totals an uninterrupted run produces.

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
// system and every engine, the disk tier under a spill-forcing memory
// ceiling must report exactly the counters of the in-RAM store.
func TestDiskMatchesMem(t *testing.T) {
	for name, c := range engineSystems(t) {
		c := c
		t.Run(name, func(t *testing.T) {
			for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
				mopts := c.opts
				mopts.Engine = engine
				if engine == ParallelEngine {
					mopts.Workers = 4
				}
				ref, err := Run(c.sys.Clone(), mopts)
				if err != nil {
					t.Fatalf("%v mem: %v", engine, err)
				}
				got, err := Run(c.sys.Clone(), diskOpts(t, mopts))
				if err != nil {
					t.Fatalf("%v disk: %v", engine, err)
				}
				if keyOf(got) != keyOf(ref) {
					t.Errorf("%v: disk %+v, mem %+v", engine, keyOf(got), keyOf(ref))
				}
				if got.Stats.StoreKind != "disk" {
					t.Errorf("%v: StoreKind = %q, want disk", engine, got.Stats.StoreKind)
				}
				// The hot table floors at 4096 slots and flushes at
				// half-full, so any run past that many states must have
				// spilled — otherwise the ceiling was never exercised.
				if got.States >= 4096 && got.Stats.Store.Spills == 0 {
					t.Errorf("%v: ceiling %d never spilled (states=%d); equivalence untested",
						engine, tinyMemLimit, got.States)
				}
			}
		})
	}
}

// TestDiskMatchesMemUnderSymmetry repeats the store-equivalence check on
// every symmetry level: canonical fingerprints flow through the same
// spill/merge path as exact ones, and the reduced counts must agree
// between tiers on every engine.
func TestDiskMatchesMemUnderSymmetry(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "a"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
		for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
			mopts := Options{Engine: engine, Canonicalizer: sym.Canonicalizer()}
			if engine == ParallelEngine {
				mopts.Workers = 4
			}
			ref, err := Run(sys.Clone(), mopts)
			if err != nil {
				t.Fatalf("%v/%v mem: %v", engine, sym, err)
			}
			got, err := Run(sys.Clone(), diskOpts(t, mopts))
			if err != nil {
				t.Fatalf("%v/%v disk: %v", engine, sym, err)
			}
			if keyOf(got) != keyOf(ref) {
				t.Errorf("%v/%v: disk %+v, mem %+v", engine, sym, keyOf(got), keyOf(ref))
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

// TestKillAndResume hard-cancels every engine mid-run, then resumes from
// the checkpoint and demands the exact totals of an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	for _, kind := range []store.Kind{store.Mem, store.Disk} {
		for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
			t.Run(kind.String()+"/"+engine.String(), func(t *testing.T) {
				sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Engine: engine}
				if engine == ParallelEngine {
					opts.Workers = 4
				}
				if kind == store.Disk {
					opts = diskOpts(t, opts)
				}
				ref, err := Run(sys.Clone(), opts)
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
					killAndResume(t, sys, opts, ref)
					runtime.GOMAXPROCS(old)
				}
			})
		}
	}
}

// killAndResume cancels a checkpointed run halfway, resumes it, and
// checks the resumed totals against the uninterrupted reference.
func killAndResume(t *testing.T, sys *machine.System, opts Options, ref Result) {
	t.Helper()
	dir := t.TempDir()
	killed := opts
	killed.Checkpoint = dir
	killed.CheckpointEvery = 50
	killed.ProgressEvery = 1
	killed.Cancel, killed.Progress = cancelAfter(ref.States / 2)
	if _, err := Run(sys.Clone(), killed); !errors.Is(err, ErrCanceled) {
		t.Fatalf("GOMAXPROCS=%d: killed run: err = %v, want ErrCanceled", runtime.GOMAXPROCS(0), err)
	}

	resumed := opts
	resumed.Resume = dir
	resumed.Checkpoint = dir
	resumed.CheckpointEvery = 50
	got, err := Run(sys.Clone(), resumed)
	if err != nil {
		t.Fatalf("GOMAXPROCS=%d: resumed run: %v", runtime.GOMAXPROCS(0), err)
	}
	if keyOf(got) != keyOf(ref) {
		t.Errorf("GOMAXPROCS=%d: resumed %+v, uninterrupted %+v", runtime.GOMAXPROCS(0), keyOf(got), keyOf(ref))
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
	for _, engine := range []Engine{BFSEngine, DFSEngine, ParallelEngine} {
		t.Run(engine.String(), func(t *testing.T) {
			sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Engine: engine, Invariant: inv}
			if engine == ParallelEngine {
				opts.Workers = 4
			}
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
			if engine != ParallelEngine && got.States != ref.States {
				// Serial engines are deterministic, so the resumed search
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
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0, Engine: BFSEngine}
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
		{"disk+TrackGraph", Options{Store: store.Disk, Engine: BFSEngine, TrackGraph: true}, "TrackGraph"},
		{"checkpoint+TrackGraph", Options{Engine: BFSEngine, TrackGraph: true, Checkpoint: "ck"}, "Checkpoint with TrackGraph"},
		{"resume+Traces", Options{Resume: "ck", Traces: true}, "Resume with Traces"},
		{"resume+TrackGraph", Options{Engine: BFSEngine, Resume: "ck", TrackGraph: true}, "Resume with TrackGraph"},
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
	killed := Options{Engine: BFSEngine, Checkpoint: dir, CheckpointEvery: 10, ProgressEvery: 1}
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
		{"symmetry", Options{Engine: BFSEngine, Resume: dir, Canonicalizer: canon.ProcSymmetry{}}, "symmetry"},
		{"maxCrashes", Options{Engine: BFSEngine, Resume: dir, MaxCrashes: 1}, "maxCrashes"},
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
		_, err = Run(other, Options{Engine: BFSEngine, Resume: dir})
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
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0, Engine: BFSEngine}
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
