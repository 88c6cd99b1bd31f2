package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
	"anonshm/internal/view"
)

// TestSeqDelegatesNestedCrasher is the regression test for the
// fault-injection delegation bug: Run only type-asserts its top-level
// scheduler as FaultInjector, so before Seq.NextCrash existed a Crasher
// nested inside a Seq phase silently never crashed anyone.
func TestSeqDelegatesNestedCrasher(t *testing.T) {
	sys := newCounterSystem(t, []int{6, 6, 6}, 1)
	cr := NewCrasher(&RoundRobin{}, 2, 1)
	cr.Prob = 1 // crash at the first opportunities
	q := &Seq{Phases: []Phase{{S: cr, Steps: -1}}}
	res, err := Run(sys, q, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 || sys.CrashCount() != 2 {
		t.Fatalf("Seq-wrapped Crasher injected %d crashes (system saw %d), want 2", res.Crashes, sys.CrashCount())
	}
	if res.Reason != StopQuiescent {
		t.Errorf("reason = %v, want %v", res.Reason, StopQuiescent)
	}
}

// TestSeqCrashConsumesPhaseBudget pins the budget accounting: a crash is
// a transition of the model, so it spends the active phase's step budget
// exactly like a regular step, and a later injector-free phase proposes
// no crashes.
func TestSeqCrashConsumesPhaseBudget(t *testing.T) {
	sys := newCounterSystem(t, []int{6, 6, 6, 6}, 1)
	cr := NewCrasher(&RoundRobin{}, 3, 1)
	cr.Prob = 1
	q := &Seq{Phases: []Phase{
		{S: cr, Steps: 2}, // room for exactly 2 transitions: both crashes
		{S: &RoundRobin{}, Steps: -1},
	}}
	res, err := Run(sys, q, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2 (phase budget 2 must cap a budget-3 crasher)", res.Crashes)
	}
	if res.Reason != StopQuiescent {
		t.Errorf("reason = %v, want %v", res.Reason, StopQuiescent)
	}
}

// chooser offers a read (choice 0) and a destructive write (choice 1)
// until it has advanced twice, then outputs. It exists to pin the
// Coverer choice-handling fix: an adversary that only ever looks at
// Pending()[0] sees a harmless read and never finds the covering write.
type chooser struct {
	steps int
	done  bool
}

func (c *chooser) Pending() []machine.Op {
	if c.done {
		return nil
	}
	if c.steps >= 2 {
		return []machine.Op{{Kind: machine.OpOutput, Word: word("done")}}
	}
	return []machine.Op{
		{Kind: machine.OpRead, Reg: 0},
		{Kind: machine.OpWrite, Reg: 0, Word: word(fmt.Sprintf("w%d", c.steps))},
	}
}

func (c *chooser) Advance(_ int, _ anonmem.Word) {
	if c.steps >= 2 {
		c.done = true
		return
	}
	c.steps++
}

func (c *chooser) Done() bool { return c.done }

func (c *chooser) Output() anonmem.Word {
	if !c.done {
		return nil
	}
	return word("done")
}

func (c *chooser) Clone() machine.Machine { cp := *c; return &cp }

func (c *chooser) StateKey() string { return fmt.Sprintf("chooser:%d:%v", c.steps, c.done) }

func (c *chooser) Encode(dst []uint64) []uint64 {
	return anonmem.AppendString(dst, c.StateKey())
}

// TestCovererPicksDestructiveChoice is the regression test for the
// choice-handling bug: Coverer.Next always returned choice 0, silently
// ignoring pending nondeterministic alternatives, so a machine whose
// default choice is a read never had its covering write scheduled.
func TestCovererPicksDestructiveChoice(t *testing.T) {
	mem, err := anonmem.New(1, word("init"), anonmem.IdentityWirings(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, []machine.Machine{&chooser{}})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []machine.OpKind
	var choices []int
	obs := ObserverFunc(func(_ int, info machine.StepInfo, _ *machine.System) {
		kinds = append(kinds, info.Op.Kind)
		choices = append(choices, info.Choice)
	})
	res, err := Run(sys, &Coverer{}, 100, obs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopAllDone {
		t.Fatalf("res = %+v", res)
	}
	// Both pre-output steps must be the destructive write alternative
	// (choice 1), not the default read (choice 0).
	want := []machine.OpKind{machine.OpWrite, machine.OpWrite, machine.OpOutput}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("op kinds = %v, want %v (coverer ignored the write alternative)", kinds, want)
	}
	if choices[0] != 1 || choices[1] != 1 {
		t.Errorf("choices = %v, want the destructive choice 1 on both steps", choices)
	}
}

// TestSplitSeed pins the splitmix64 derivation: stream 0 of base 0 is
// the reference splitmix64 output for state 0, distinct streams of one
// base differ, and the derived crash seed no longer collides with the
// next seed's scheduler stream (the seed+1 correlation hazard).
func TestSplitSeed(t *testing.T) {
	if got := uint64(SplitSeed(0, 0)); got != 0xe220a8397b1dcdaf {
		t.Errorf("SplitSeed(0,0) = %#x, want the splitmix64 reference vector e220a8397b1dcdaf", got)
	}
	if SplitSeed(7, StreamSched) == SplitSeed(7, StreamCrash) {
		t.Error("streams of one seed coincide")
	}
	for seed := int64(1); seed < 100; seed++ {
		if SplitSeed(seed, StreamCrash) == seed+1 {
			t.Errorf("seed %d: crash stream still collides with seed+1", seed)
		}
	}
}

// TestNewByName covers the registry: every zoo name resolves, resolves
// deterministically for equal seeds, and unknown names error.
func TestNewByName(t *testing.T) {
	for _, name := range append(ZooNames(), "solo") {
		s, err := NewByName(name, 3, 5, true)
		if err != nil || s == nil {
			t.Fatalf("NewByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := NewByName("nope", 2, 1, false); err == nil {
		t.Error("unknown scheduler name did not error")
	}
}

// TestZooDeterministicPerSeed asserts every zoo scheduler replays the
// same execution for the same seed and that some pair of seeds diverges
// (rr is exempt from divergence: it is deterministic by design).
func TestZooDeterministicPerSeed(t *testing.T) {
	for _, name := range ZooNames() {
		t.Run(name, func(t *testing.T) {
			runSeed := func(seed int64) []int {
				sys := newCounterSystem(t, []int{6, 6, 6, 6}, 2)
				s, err := NewByName(name, 4, seed, true)
				if err != nil {
					t.Fatal(err)
				}
				order := stepOrder(t, sys, s)
				if !sys.AllDone() {
					t.Fatalf("%s did not complete the run", name)
				}
				return order
			}
			if !reflect.DeepEqual(runSeed(1), runSeed(1)) {
				t.Fatalf("%s: same seed, different execution", name)
			}
			if name == "rr" {
				return
			}
			base := runSeed(1)
			diverged := false
			for seed := int64(2); seed < 12 && !diverged; seed++ {
				diverged = !reflect.DeepEqual(base, runSeed(seed))
			}
			if !diverged {
				t.Errorf("%s: seed never changes the schedule", name)
			}
		})
	}
}

// TestLatencyWeightsSkewSteps checks that weights actually skew the step
// share: a 10x-weighted processor must take the large majority of steps
// against an equal competitor that never finishes.
func TestLatencyWeightsSkewSteps(t *testing.T) {
	sys := newCounterSystem(t, []int{1 << 20, 1 << 20}, 1)
	l := NewLatency(ExpLatency, 1)
	l.Weights = []float64{10, 1}
	counts := make([]int, 2)
	if _, err := Run(sys, l, 4000, ObserverFunc(func(_ int, info machine.StepInfo, _ *machine.System) {
		counts[info.Proc]++
	})); err != nil {
		t.Fatal(err)
	}
	if counts[0] < 3*counts[1] {
		t.Errorf("weight-10 processor took %d steps vs %d: weights are dead", counts[0], counts[1])
	}
}

// TestWeightedFallsThroughExhaustedMember checks the mixer keeps running
// when a member declines: a finished Scripted member must not stall the
// mixture.
func TestWeightedFallsThroughExhaustedMember(t *testing.T) {
	sys := newCounterSystem(t, []int{3, 3}, 1)
	w := NewWeighted(1, &Scripted{Script: Procs(0)}, &RoundRobin{})
	res, err := Run(sys, w, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopAllDone {
		t.Fatalf("mixture stalled on an exhausted member: %+v", res)
	}
}

// TestWeightedDelegatesNextCrash checks FaultInjector composition
// through the mixer: a Crasher mixture member injects even though the
// top-level scheduler handed to Run is the Weighted wrapper.
func TestWeightedDelegatesNextCrash(t *testing.T) {
	sys := newCounterSystem(t, []int{5, 5, 5}, 1)
	cr := NewCrasher(&RoundRobin{}, 1, 1)
	cr.Prob = 1
	w := NewWeighted(1, cr, &RoundRobin{})
	res, err := Run(sys, w, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || sys.CrashCount() != 1 {
		t.Fatalf("crashes = %d (system %d), want 1", res.Crashes, sys.CrashCount())
	}
}

// zooInputs builds n distinct input labels (distinct groups).
func zooInputs(n int) []string {
	inputs := make([]string, n)
	for i := range inputs {
		inputs[i] = string(rune('a' + i))
	}
	return inputs
}

// validateZooRun checks a terminated run's outputs against the task
// invariants — the same conditions anonsim validates post-run.
func validateZooRun(t *testing.T, algo string, inputs []string, ids []view.ID, sys *machine.System, desc string) {
	t.Helper()
	switch algo {
	case "snapshot":
		outs, ok := core.SnapshotOutputs(sys)
		all := view.Empty()
		for _, id := range ids {
			all = all.With(id)
		}
		for p := range outs {
			if !ok[p] {
				continue
			}
			if !outs[p].Contains(ids[p]) {
				t.Fatalf("%s: output of p%d misses own input", desc, p)
			}
			if !outs[p].SubsetOf(all) {
				t.Fatalf("%s: output of p%d exceeds participating inputs", desc, p)
			}
			for q := 0; q < p; q++ {
				if ok[q] && !outs[p].ComparableWith(outs[q]) {
					t.Fatalf("%s: outputs of p%d and p%d incomparable", desc, p, q)
				}
			}
		}
	case "renaming":
		groups := map[string]bool{}
		for _, in := range inputs {
			groups[in] = true
		}
		maxName := len(groups) * (len(groups) + 1) / 2
		names, done := renaming.Names(sys)
		for p := range names {
			if !done[p] {
				continue
			}
			if names[p] < 1 || names[p] > maxName {
				t.Fatalf("%s: p%d name %d outside 1..%d", desc, p, names[p], maxName)
			}
			for q := 0; q < p; q++ {
				if done[q] && names[q] == names[p] && inputs[q] != inputs[p] {
					t.Fatalf("%s: cross-group name collision %d between p%d and p%d", desc, names[p], p, q)
				}
			}
		}
	}
}

// TestZooSeedSweepTerminates is the seed-sweep property test: every
// scheduler in the zoo terminates the Figure 3 snapshot and the Figure 4
// renaming with valid outputs under every crash budget 0..N-1 at N=2..4,
// across 100 seeds (10 under -short). Wirings vary with the seed, the
// crash seed is split off the run seed, and nondeterministic choices are
// exposed — the statistical counterpart of the exhaustive E3/E14 checks.
func TestZooSeedSweepTerminates(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	for _, algo := range []string{"snapshot", "renaming"} {
		for n := 2; n <= 4; n++ {
			inputs := zooInputs(n)
			for budget := 0; budget < n; budget++ {
				for _, name := range ZooNames() {
					for seed := int64(1); seed <= int64(seeds); seed++ {
						rng := rand.New(rand.NewSource(seed))
						cfg := core.Config{
							Inputs:  inputs,
							Nondet:  true,
							Wirings: anonmem.RandomWirings(rng, n, n),
						}
						var (
							sys *machine.System
							in  *view.Interner
							err error
						)
						if algo == "snapshot" {
							sys, in, err = core.NewSnapshotSystem(cfg)
						} else {
							sys, in, err = renaming.NewSystem(cfg)
						}
						if err != nil {
							t.Fatal(err)
						}
						ids := make([]view.ID, n)
						for i, label := range inputs {
							ids[i] = in.Intern(label)
						}
						s, err := NewByName(name, n, SplitSeed(seed, StreamSched), true)
						if err != nil {
							t.Fatal(err)
						}
						if budget > 0 {
							s = NewCrasher(s, budget, SplitSeed(seed, StreamCrash))
						}
						desc := fmt.Sprintf("%s n=%d sched=%s crashes=%d seed=%d", algo, n, name, budget, seed)
						res, err := Run(sys, s, 200_000*n*n, nil)
						if err != nil {
							t.Fatalf("%s: %v", desc, err)
						}
						if res.Reason != StopAllDone && res.Reason != StopQuiescent {
							t.Fatalf("%s: stopped with %v after %d steps: wait-freedom violated", desc, res.Reason, res.Steps)
						}
						validateZooRun(t, algo, inputs, ids, sys, desc)
					}
				}
			}
		}
	}
}
