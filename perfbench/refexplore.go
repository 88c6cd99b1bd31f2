package main

import (
	"fmt"
	"os"
	"time"

	"anonshm/internal/canon"
	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// refSample is the reference explorer's timing rate: one call in
// refSample of each timed kind is measured.
const refSample = 4

// callTimer accumulates a sample of call durations.
type callTimer struct {
	calls   int64         // every call, timed or not
	sampled int64         // calls that were timed
	total   time.Duration // summed duration of the timed calls
}

// start begins a call, reading the clock when the call is one to time.
func (t *callTimer) start() (time.Time, bool) {
	t.calls++
	if t.calls%refSample != 1 {
		return time.Time{}, false
	}
	return time.Now(), true
}

// stop ends a call begun by start.
func (t *callTimer) stop(t0 time.Time, timed bool) {
	if timed {
		t.sampled++
		t.total += time.Since(t0)
	}
}

// meanNS is the mean timed call duration in ns, clock reads included.
func (t *callTimer) meanNS() float64 {
	return ratio(float64(t.total.Nanoseconds()), float64(t.sampled))
}

// RefTiming holds the reference explorer's per-call timings of the
// machine and store layers. (The canon layer is timed inside explore.Run
// itself, by the traced run's wrapping canonicalizer.)
type RefTiming struct {
	Clone, Step, Insert, Push, Pop callTimer
}

// RefStats is what the reference explorer counted.
type RefStats struct {
	States, Edges, Terminals, Pruned int64
	// Steps counts machine transitions taken (steps and crashes).
	Steps int64
}

// Answer projects the counts onto a known answer. The reference explorer
// checks no invariant, so the verdict is the caller's.
func (st RefStats) Answer(verdict string) Answer {
	return Answer{Verdict: verdict, States: int(st.States), Edges: int(st.Edges), Terminals: int(st.Terminals)}
}

// RefExplore is the harness's own breadth-first explorer. It drives the
// layers under explore.Run directly — machine.System Clone/Step/Crash,
// the configuration's bound canon.Hasher, and a store.Open visited set
// and frontier on the configuration's tier — so each layer's calls can
// be timed from outside the program (timing may be nil). It applies the
// configuration's prune and crash budget but not its invariant, so on every
// wiring whose verdict is "ok" it must reach exactly the states, edges
// and terminals explore.Run reports.
func RefExplore(init *machine.System, cfg Config, scratch string, timing *RefTiming) (RefStats, error) {
	var st RefStats
	opts, err := cfg.Options(nil)
	if err != nil {
		return st, err
	}
	if timing == nil {
		timing = &RefTiming{}
	}
	hasher, err := opts.Canonicalizer.Bind(init)
	if err != nil {
		return st, err
	}
	scfg := store.Config{Kind: opts.Store, MemLimit: opts.MemLimit, Root: init, Workers: 1}
	if opts.Store == store.Disk {
		dir, err := os.MkdirTemp(scratch, "refstore-")
		if err != nil {
			return st, fmt.Errorf("disk store directory: %w", err)
		}
		defer os.RemoveAll(dir)
		scfg.Dir = dir
	}
	s, err := store.Open(scfg)
	if err != nil {
		return st, err
	}
	defer s.Close()
	visited, err := s.NewVisited(false)
	if err != nil {
		return st, err
	}
	defer visited.Close()
	fr, err := s.NewFrontier(0, store.FIFO)
	if err != nil {
		return st, err
	}
	defer fr.Close()
	r := refRun{st: &st, t: timing, hasher: hasher, visited: visited, fr: fr, needPath: fr.NeedsPath(), prune: opts.Prune}

	root := init.Clone()
	if err := r.discover(root, store.Entry{Depth: -1}, 0, false); err != nil {
		return st, err
	}
	for {
		t0, timed := timing.Pop.start()
		e, ok, err := fr.Pop()
		timing.Pop.stop(t0, timed)
		if err != nil {
			return st, err
		}
		if !ok {
			return st, nil
		}
		if err := r.expand(e, opts.MaxCrashes); err != nil {
			return st, err
		}
	}
}

// refRun is one reference exploration in progress.
type refRun struct {
	st       *RefStats
	t        *RefTiming
	hasher   canon.Hasher
	visited  store.VisitedSet
	fr       store.Frontier
	needPath bool
	prune    func(explore.Node) bool
}

// expand generates every successor of e: each enabled processor's
// pending choices, then (below the crash budget) each enabled
// processor's crash — the engines' successor order.
func (r *refRun) expand(e store.Entry, maxCrashes int) error {
	sys := e.Sys
	if r.prune != nil && r.prune(explore.Node{Sys: sys, Aux: e.Aux, Depth: int(e.Depth)}) {
		r.st.Pruned++
		return nil
	}
	for p := 0; p < sys.N(); p++ {
		if !sys.Enabled(p) {
			continue
		}
		for c := range len(sys.Procs[p].Pending()) {
			if err := r.successor(e, p, c, false); err != nil {
				return err
			}
		}
	}
	if maxCrashes > 0 && sys.CrashCount() < maxCrashes {
		for p := 0; p < sys.N(); p++ {
			if sys.Enabled(p) {
				if err := r.successor(e, p, 0, true); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// successor clones e's system, applies one transition and discovers the
// result.
func (r *refRun) successor(e store.Entry, p, c int, crash bool) error {
	t0, timed := r.t.Clone.start()
	succ := e.Sys.Clone()
	r.t.Clone.stop(t0, timed)

	step := store.PackStep(p, c)
	var err error
	t0, timed = r.t.Step.start()
	if crash {
		step = store.PackCrash(p)
		_, err = succ.Crash(p)
	} else {
		_, err = succ.Step(p, c)
	}
	r.t.Step.stop(t0, timed)
	if err != nil {
		return err
	}
	r.st.Steps++
	r.st.Edges++
	return r.discover(succ, e, step, true)
}

// discover fingerprints sys, inserts it into the visited set and, when
// fresh, queues it as a child of parent reached by step.
func (r *refRun) discover(sys *machine.System, parent store.Entry, step store.Step, hasParent bool) error {
	fp := r.hasher.Fingerprint(sys, 0)
	depth := parent.Depth + 1
	t0, timed := r.t.Insert.start()
	fresh, _, err := r.visited.Insert(fp, depth)
	r.t.Insert.stop(t0, timed)
	if err != nil || !fresh {
		return err
	}
	r.st.States++
	if sys.Quiescent() {
		r.st.Terminals++
	}
	e := store.Entry{Sys: sys, Depth: depth}
	if r.needPath && hasParent {
		e.Path = parent.Path.Extend(step)
	}
	t0, timed = r.t.Push.start()
	err = r.fr.Push(e)
	r.t.Push.stop(t0, timed)
	return err
}
