package explore

import (
	"sync"
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/machine"
)

// These tests pin run-to-run determinism: the verification story depends
// on identical binaries producing identical state counts, so any
// unordered map feeding enumeration would surface here as a flaky diff.
// (The `for p := range outs` loops in checks.go that looked suspect
// iterate []view.View slices returned by core.SnapshotOutputs — ordered
// by construction; the anonlint/determinism analyzer guards against a
// future map sneaking in.)

// resultKey projects the fields of a Result that must be bit-identical
// across runs — everything except Stats (wall time, throughput) — plus
// a digest of the visited fingerprint set, so equal keys mean the runs
// searched the same states, not merely as many.
type resultKey struct {
	states, edges, terminals, maxDepth, pruned int
	truncated, cycle                           bool
	visited                                    setDigest
}

func keyOf(r Result, visited *fpSet) resultKey {
	return resultKey{
		states: r.States, edges: r.Edges, terminals: r.Terminals,
		maxDepth: r.MaxDepth, pruned: r.Pruned,
		truncated: r.Truncated, cycle: r.Cycle,
		visited: visited.digest(),
	}
}

// space drops the fields that legitimately differ between engines —
// DFS's depth-first MaxDepth and its inline cycle flag — leaving the
// searched space itself.
func (k resultKey) space() resultKey {
	k.maxDepth, k.cycle = 0, false
	return k
}

// fpSet is the visited-set oracle: the canonical fingerprint of every
// state a run discovered. It is filled through an Invariant wrapper
// (recordVisited), so the engines need no test hook; the parallel
// engine calls the invariant from every worker, hence the mutex.
type fpSet struct {
	mu sync.Mutex
	m  map[uint64]struct{}
}

// recordVisited wraps opts.Invariant so that the fingerprint of every
// discovered state, under opts.Canonicalizer bound to sys exactly as Run
// binds it, lands in the returned set. The wrapped invariant still runs.
func recordVisited(t *testing.T, sys *machine.System, opts Options) (Options, *fpSet) {
	t.Helper()
	c := opts.Canonicalizer
	if c == nil {
		c = canon.Identity{}
	}
	h, err := c.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	set := &fpSet{m: map[uint64]struct{}{}}
	inv := opts.Invariant
	opts.Invariant = func(n Node) error {
		fp := h.Fingerprint(n.Sys, n.Aux)
		set.mu.Lock()
		set.m[fp] = struct{}{}
		set.mu.Unlock()
		if inv != nil {
			return inv(n)
		}
		return nil
	}
	return opts, set
}

// union returns a new set holding the fingerprints of s and o.
func (s *fpSet) union(o *fpSet) *fpSet {
	u := &fpSet{m: make(map[uint64]struct{}, len(s.m)+len(o.m))}
	for _, x := range []*fpSet{s, o} {
		for fp := range x.m {
			u.m[fp] = struct{}{}
		}
	}
	return u
}

// setDigest is an order-independent summary of a fingerprint set: its
// size and the wrapping sum of its members. Fingerprints are uniform
// 64-bit hashes, so two different sets of equal size share a sum with
// probability about 2⁻⁶⁴.
type setDigest struct {
	n   int
	sum uint64
}

func (s *fpSet) digest() setDigest {
	d := setDigest{n: len(s.m)}
	for fp := range s.m {
		d.sum += fp
	}
	return d
}

// TestRunDeterminism re-runs every engine on every small system and
// demands identical summaries and visited sets each time — including
// ParallelEngine, where work-stealing order is the likeliest source of
// drift.
func TestRunDeterminism(t *testing.T) {
	for name, c := range engineSystems(t) {
		c := c
		t.Run(name, func(t *testing.T) {
			for _, r := range engineRuns {
				var ref resultKey
				for run := 0; run < 3; run++ {
					opts, visited := recordVisited(t, c.sys, r.with(c.opts))
					res, err := Run(c.sys.Clone(), opts)
					if err != nil {
						t.Fatalf("%s run %d: %v", r.name, run, err)
					}
					// MaxDepth is a hard assertion on every engine:
					// ParallelEngine min-merges racing discovery depths and
					// reads the exact BFS eccentricity off the visited set.
					k := keyOf(res, visited)
					if run == 0 {
						ref = k
						continue
					}
					if k != ref {
						t.Errorf("%s run %d diverged: %+v, first run %+v", r.name, run, k, ref)
					}
				}
			}
		})
	}
}

// TestSweepDeterminism re-runs the full snapshot-safety sweep (which
// exercises SnapshotInvariant and the wiring enumeration in checks.go)
// and demands identical aggregates.
func TestSweepDeterminism(t *testing.T) {
	cfg := SnapshotConfig{Inputs: []string{"a", "b"}, Wirings: FilterProc0, Nondet: true}
	type sweepKey struct {
		wirings, totalStates, totalEdges, maxStates, terminals int
		truncated                                              bool
	}
	var ref sweepKey
	for run := 0; run < 2; run++ {
		res, err := CheckSnapshotSafety(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		k := sweepKey{
			wirings: res.Wirings, totalStates: res.TotalStates, totalEdges: res.TotalEdges,
			maxStates: res.MaxStates, terminals: res.Terminals, truncated: res.Truncated,
		}
		if run == 0 {
			ref = k
			continue
		}
		if k != ref {
			t.Errorf("run %d diverged: %+v, first run %+v", run, k, ref)
		}
	}
}
