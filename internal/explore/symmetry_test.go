package explore

import (
	"errors"
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
)

// TestSymmetryOrbitCrossCheck is the brute-force soundness check at
// N=2/M=2: enumerate every unreduced state, canonicalize each one by
// hand, and demand that the reduced run stores exactly one state per
// distinct canonical fingerprint — no more (missed merges) and no fewer
// (unsound merges).
func TestSymmetryOrbitCrossCheck(t *testing.T) {
	for _, sym := range []canon.Canonicalizer{canon.ProcSymmetry{}, canon.FullSymmetry{}} {
		for perms := range Wirings(2, 2, WiringOptions{Filter: FilterProc0}) {
			sys, _, err := core.NewSnapshotSystem(core.Config{
				Inputs: []string{"a", "b"}, Wirings: perms, Nondet: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			hasher, err := sym.Bind(sys)
			if err != nil {
				t.Fatal(err)
			}
			orbits := map[uint64]bool{}
			full, err := Run(sys.Clone(), Options{
				Invariant: func(n Node) error {
					orbits[hasher.Fingerprint(n.Sys, 0)] = true
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			red, err := Run(sys.Clone(), Options{Canonicalizer: sym})
			if err != nil {
				t.Fatal(err)
			}
			if red.States != len(orbits) {
				t.Errorf("%s wiring %v: reduced run stored %d states, brute force counts %d orbits",
					sym, perms[1], red.States, len(orbits))
			}
			if red.States > full.States {
				t.Errorf("%s wiring %v: reduction grew the space (%d > %d)",
					sym, perms[1], red.States, full.States)
			}
			if red.Terminals == 0 {
				t.Errorf("%s wiring %v: reduced run reached no terminal state", sym, perms[1])
			}
		}
	}
}

// TestEnginesAgreeUnderSymmetry: the acceptance gate on the Figure 3
// snapshot sweep — every engine configuration, with symmetry on and off,
// keeps the safety verdict on every wiring; per wiring the engines search
// the same reduced visited set, and the reduced sweep never exceeds the
// unreduced one. Each run is the sweep's own per-wiring run
// (SnapshotConfig.options plus SnapshotInvariant), so its visited set can
// be recorded.
func TestEnginesAgreeUnderSymmetry(t *testing.T) {
	base := SnapshotConfig{Inputs: []string{"a", "b"}, Nondet: true, Wirings: FilterProc0}
	unreduced, err := CheckSnapshotSafety(base)
	if err != nil {
		t.Fatalf("unreduced reference: %v", err)
	}
	for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
		total := 0
		for perms := range Wirings(2, 2, WiringOptions{Filter: base.Wirings}) {
			var want resultKey
			for i, r := range engineRuns {
				c := base
				c.Symmetry = sym
				c.Engine, c.Workers = r.engine, r.workers
				sys, ids, err := c.system(perms)
				if err != nil {
					t.Fatal(err)
				}
				opts := c.options()
				opts.Invariant = SnapshotInvariant(ids)
				opts, visited := recordVisited(t, sys, opts)
				res, err := Run(sys.Clone(), opts)
				if err != nil {
					t.Fatalf("%s/%v wiring %v: safety verdict flipped: %v", r.name, sym, perms[1], err)
				}
				if sym != canon.None && res.Stats.Symmetry != sym.String() {
					t.Errorf("%s/%v: stats symmetry %q", r.name, sym, res.Stats.Symmetry)
				}
				k := keyOf(res, visited).space()
				if i == 0 {
					want = k
					total += res.States
					continue
				}
				if k != want {
					t.Errorf("%s/%v wiring %v: %+v, %s searched %+v", r.name, sym, perms[1], k, engineRuns[0].name, want)
				}
			}
		}
		if total == 0 || total > unreduced.TotalStates {
			t.Errorf("%v: %d states, unreduced %d", sym, total, unreduced.TotalStates)
		}
	}
}

// TestRenamingAgreesUnderSymmetry: the Figure 4 renaming algorithm at
// N=2 stays wait-free on every engine configuration with symmetry on,
// searching the same visited set; equal inputs put both processors in
// one symmetry class, distinct inputs degenerate to the trivial group —
// both must keep the verdict.
func TestRenamingAgreesUnderSymmetry(t *testing.T) {
	for _, inputs := range [][]string{{"g", "g"}, {"g1", "g2"}} {
		sys, _, err := renaming.NewSystem(renaming.Config{Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
			var want resultKey
			for i, r := range engineRuns {
				opts, visited := recordVisited(t, sys, r.with(Options{
					Canonicalizer: sym.Canonicalizer(),
					Invariant:     WaitFree(DefaultSoloBound(2, 2)),
				}))
				res, err := Run(sys.Clone(), opts)
				if err != nil {
					t.Fatalf("inputs %v %s/%v: %v", inputs, r.name, sym, err)
				}
				if res.Cycle {
					t.Fatalf("inputs %v %s/%v: unexpected cycle", inputs, r.name, sym)
				}
				k := keyOf(res, visited).space()
				if i == 0 {
					want = k
				} else if k != want {
					t.Errorf("inputs %v %v: %s searched %+v, %s %+v", inputs, sym, r.name, k, engineRuns[0].name, want)
				}
			}
		}
	}
}

// TestSymmetryViolationTraceReplays: when an (orbit-invariant) invariant
// is violated under symmetry reduction, every engine configuration still
// returns a counterexample trace that replays step by step from the
// initial state to a genuinely violating state.
func TestSymmetryViolationTraceReplays(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("done processor observed")
	inv := func(n Node) error {
		// DoneCount is a function of the orbit: permuting processors
		// permutes which machines are done, not how many.
		if n.Sys.DoneCount() > 0 {
			return boom
		}
		return nil
	}
	for _, r := range engineRuns {
		engine := r.name
		_, err := Run(sys.Clone(), r.with(Options{
			Canonicalizer: canon.ProcSymmetry{},
			Invariant:     inv,
			Traces:        true,
		}))
		var ie *InvariantError
		if !errors.As(err, &ie) {
			t.Fatalf("%v: expected InvariantError, got %v", engine, err)
		}
		if len(ie.Trace) == 0 {
			t.Fatalf("%v: empty counterexample trace", engine)
		}
		replay := sys.Clone()
		for i, info := range ie.Trace {
			if replay.DoneCount() > 0 {
				t.Fatalf("%v: invariant already violated before step %d", engine, i)
			}
			if info.Op.Kind == machine.OpCrash {
				_, err = replay.Crash(info.Proc)
			} else {
				_, err = replay.Step(info.Proc, info.Choice)
			}
			if err != nil {
				t.Fatalf("%v: trace does not replay at step %d: %v", engine, i, err)
			}
		}
		if replay.DoneCount() == 0 {
			t.Fatalf("%v: replayed trace does not violate the invariant", engine)
		}
	}
}

// TestSymmetryReducesStates: symmetry must actually pay on a symmetric
// system — same-input N=2 snapshot, identity wirings, a 2-element group.
func TestSymmetryReducesStates(t *testing.T) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"g", "g"}, Nondet: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(sys.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	red, err := Run(sys.Clone(), Options{Canonicalizer: canon.ProcSymmetry{}})
	if err != nil {
		t.Fatal(err)
	}
	if red.States >= full.States {
		t.Errorf("no reduction: %d >= %d", red.States, full.States)
	}
	if red.Stats.GroupSize != 2 {
		t.Errorf("group size %d, want 2", red.Stats.GroupSize)
	}
	if red.Stats.Symmetry != "proc" {
		t.Errorf("stats symmetry %q", red.Stats.Symmetry)
	}
}

// TestWitnessSearchPinsIdentity: the non-atomicity witness search tracks
// a fixed candidate view in its aux bit — not orbit-invariant — so it
// must run unreduced regardless of the configured symmetry, and still
// prove atomicity at N=2.
func TestWitnessSearchPinsIdentity(t *testing.T) {
	r, err := FindNonAtomicityWitness(SnapshotConfig{
		Inputs:   []string{"a", "b"},
		Wirings:  FilterProc0,
		Symmetry: canon.Full,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Found || !r.Exhaustive {
		t.Errorf("witness result %+v", r)
	}
}
