package core

import (
	"fmt"
	"math/rand"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
	"anonshm/internal/sched"
	"anonshm/internal/view"
)

// maxSteps returns a generous termination budget for n processors under a
// fair scheduler.
func maxSteps(n int) int { return 2000 * n * n * n }

// checkSnapshotOutputs asserts the snapshot-task conditions the paper's
// algorithm guarantees (Section 5.3.2, stronger than group solvability):
// self-inclusion, validity, and pairwise containment across ALL outputs.
func checkSnapshotOutputs(t *testing.T, sys *machine.System, in *view.Interner, inputs []string) {
	t.Helper()
	outs, ok := SnapshotOutputs(sys)
	all := view.Empty()
	for _, label := range inputs {
		id, found := in.Lookup(label)
		if !found {
			t.Fatalf("input %q not interned", label)
		}
		all = all.With(id)
	}
	for p, o := range outs {
		if !ok[p] {
			t.Fatalf("processor %d did not terminate", p)
		}
		id, _ := in.Lookup(inputs[p])
		if !o.Contains(id) {
			t.Errorf("p%d output %s misses own input %q", p, o.Format(in), inputs[p])
		}
		if !o.SubsetOf(all) {
			t.Errorf("p%d output %s contains non-participating values", p, o.Format(in))
		}
		for q := 0; q < p; q++ {
			if !o.ComparableWith(outs[q]) {
				t.Errorf("outputs of p%d (%s) and p%d (%s) incomparable",
					p, o.Format(in), q, outs[q].Format(in))
			}
		}
	}
}

func TestSnapshotSingleProcessor(t *testing.T) {
	sys, in, err := NewSnapshotSystem(Config{Inputs: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sys, &sched.RoundRobin{}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != sched.StopAllDone {
		t.Fatalf("did not terminate: %+v", res)
	}
	// One write + one scan (1 read) + output = 3 steps.
	if res.Steps != 3 {
		t.Errorf("steps = %d, want 3", res.Steps)
	}
	checkSnapshotOutputs(t, sys, in, []string{"a"})
}

func TestSnapshotRoundRobinIdentity(t *testing.T) {
	for n := 2; n <= 6; n++ {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			inputs := make([]string, n)
			for i := range inputs {
				inputs[i] = fmt.Sprintf("v%d", i)
			}
			sys, in, err := NewSnapshotSystem(Config{Inputs: inputs})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sched.Run(sys, &sched.RoundRobin{}, maxSteps(n), nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reason != sched.StopAllDone {
				t.Fatalf("did not terminate: %+v", res)
			}
			checkSnapshotOutputs(t, sys, in, inputs)
		})
	}
}

func TestSnapshotRandomWiringsAndSchedules(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		inputs := make([]string, n)
		for i := range inputs {
			// Duplicate inputs now and then: groups are allowed.
			inputs[i] = fmt.Sprintf("v%d", rng.Intn(n))
		}
		sys, in, err := NewSnapshotSystem(Config{
			Inputs:  inputs,
			Wirings: anonmem.RandomWirings(rng, n, n),
			Nondet:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := &sched.Random{Rng: rng, ChoiceRandom: true}
		res, err := sched.Run(sys, r, maxSteps(n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != sched.StopAllDone {
			t.Fatalf("seed %d: did not terminate: %+v", seed, res)
		}
		checkSnapshotOutputs(t, sys, in, inputs)
	}
}

func TestSnapshotUnderCovererAdversary(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		inputs := make([]string, n)
		for i := range inputs {
			inputs[i] = fmt.Sprintf("v%d", i)
		}
		sys, in, err := NewSnapshotSystem(Config{
			Inputs:  inputs,
			Wirings: anonmem.RotationWirings(n, n),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(sys, &sched.Coverer{}, maxSteps(n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != sched.StopAllDone {
			t.Fatalf("seed %d: coverer prevented termination: %+v (wait-freedom violated?)", seed, res)
		}
		checkSnapshotOutputs(t, sys, in, inputs)
	}
}

func TestSnapshotSoloRuns(t *testing.T) {
	// Obstruction-free special case of wait-freedom: processors running
	// one after the other. Later processors must include earlier outputs.
	inputs := []string{"a", "b", "c"}
	sys, in, err := NewSnapshotSystem(Config{Inputs: inputs, Wirings: anonmem.RotationWirings(3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sys, sched.NewSolo(3), maxSteps(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != sched.StopAllDone {
		t.Fatalf("solo run did not terminate: %+v", res)
	}
	checkSnapshotOutputs(t, sys, in, inputs)
	outs, _ := SnapshotOutputs(sys)
	// Sequential runs are linearizable-ish: each later output must contain
	// every earlier output (the earlier writes are durably stored).
	for i := 1; i < len(outs); i++ {
		if !outs[i-1].SubsetOf(outs[i]) {
			t.Errorf("solo outputs not increasing: %s ⊄ %s", outs[i-1].Format(in), outs[i].Format(in))
		}
	}
}

func TestSnapshotLevelMonotoneDuringCleanRun(t *testing.T) {
	// A processor running completely alone sees only its own writes, so
	// after the first full write round its level must increase by one per
	// scan until it terminates.
	s := NewSnapshot(4, 4, 0, false)
	mem, err := anonmem.New(4, EmptyCell, anonmem.IdentityWirings(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, []machine.Machine{s})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for !sys.AllDone() {
		if _, err := sys.Step(0, 0); err != nil {
			t.Fatal(err)
		}
		if s.Level() < 0 || s.Level() > 4 {
			t.Fatalf("level out of range: %d", s.Level())
		}
		if s.Level() > prev+1 {
			t.Fatalf("level jumped from %d to %d", prev, s.Level())
		}
		prev = s.Level()
	}
	if !s.SnapshotView().Equal(view.Of(0)) {
		t.Errorf("solo snapshot = %v", s.SnapshotView())
	}
}

func TestSnapshotViewMonotone(t *testing.T) {
	inputs := []string{"a", "b", "c", "d"}
	sys, _, err := NewSnapshotSystem(Config{
		Inputs:  inputs,
		Wirings: anonmem.RotationWirings(4, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := make([]view.View, 4)
	obs := sched.ObserverFunc(func(_ int, _ machine.StepInfo, sys *machine.System) {
		for p, m := range sys.Procs {
			v := m.(Viewer).View()
			if !prev[p].SubsetOf(v) {
				t.Errorf("p%d view shrank: %v -> %v", p, prev[p], v)
			}
			prev[p] = v
		}
	})
	if _, err := sched.Run(sys, sched.NewRandom(7), maxSteps(4), obs); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotWritesOwnView(t *testing.T) {
	// Every written cell must be exactly the writer's (view, level) at the
	// time of the write.
	inputs := []string{"a", "b", "c"}
	sys, _, err := NewSnapshotSystem(Config{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	// Capture views before each step, because the observer runs after.
	for t0 := 0; t0 < 500 && !sys.AllDone(); t0++ {
		p := t0 % 3
		if !sys.Enabled(p) {
			continue
		}
		m := sys.Procs[p].(*Snapshot)
		wantView, wantLevel := m.View(), m.Level()
		info, err := sys.Step(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if info.Op.Kind == machine.OpWrite {
			cell := info.Op.Word.(Cell)
			if !cell.View.Equal(wantView) || cell.Level != wantLevel {
				t.Fatalf("p%d wrote (%v,%d), local state was (%v,%d)",
					p, cell.View, cell.Level, wantView, wantLevel)
			}
		}
	}
}

func TestSnapshotAtLevelOneIsFastButWeak(t *testing.T) {
	// Threshold 1 still terminates (it only outputs earlier); its
	// correctness is broken only by deeper adversaries — demonstrated in
	// the Figure 2 ablation experiment, not here.
	sys, in, err := NewSnapshotSystem(Config{
		Inputs: []string{"a", "b"},
		Level:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(sys, &sched.RoundRobin{}, maxSteps(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != sched.StopAllDone {
		t.Fatalf("did not terminate: %+v", res)
	}
	checkSnapshotOutputs(t, sys, in, []string{"a", "b"})
}

func TestSnapshotCloneIndependent(t *testing.T) {
	s := NewSnapshot(3, 3, 1, true)
	cp := s.Clone().(*Snapshot)
	cp.Advance(0, nil) // take the write step on the clone
	if s.StateKey() == cp.StateKey() {
		t.Error("advancing clone changed original (or key insensitive)")
	}
}

func TestSnapshotPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero level", func() { NewSnapshotAtLevel(0, 3, 0, false) })
	mustPanic("zero registers", func() { NewSnapshot(3, 0, 0, false) })
	mustPanic("too many registers", func() { NewSnapshot(3, 65, 0, false) })
	mustPanic("bad read word", func() {
		s := NewSnapshot(2, 2, 0, false)
		s.Advance(0, nil) // write done, now scanning
		s.Advance(0, badWord{})
	})
	mustPanic("invoke before done", func() {
		NewSnapshot(2, 2, 0, false).Invoke(1)
	})
}

type badWord struct{}

func (badWord) Key() string                  { return "bad" }
func (badWord) Encode(dst []uint64) []uint64 { return dst }

func TestSnapshotInvokeLongLived(t *testing.T) {
	// Two processors, each invoked twice with fresh inputs. All four
	// outputs must be related by containment, and each processor's second
	// output must contain its first plus the new input.
	inputs := []string{"a0", "b0"}
	sys, in, err := NewSnapshotSystem(Config{Inputs: inputs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(sys, &sched.RoundRobin{}, maxSteps(2), nil); err != nil {
		t.Fatal(err)
	}
	first, ok := SnapshotOutputs(sys)
	if !ok[0] || !ok[1] {
		t.Fatal("first invocation did not complete")
	}

	// Re-invoke both with new inputs.
	newIDs := []view.ID{in.Intern("a1"), in.Intern("b1")}
	for p, m := range sys.Procs {
		m.(*Snapshot).Invoke(newIDs[p])
	}
	if _, err := sched.Run(sys, &sched.RoundRobin{}, maxSteps(2), nil); err != nil {
		t.Fatal(err)
	}
	second, ok := SnapshotOutputs(sys)
	if !ok[0] || !ok[1] {
		t.Fatal("second invocation did not complete")
	}
	for p := range sys.Procs {
		if !first[p].SubsetOf(second[p]) {
			t.Errorf("p%d second output %s lost values from first %s",
				p, second[p].Format(in), first[p].Format(in))
		}
		if !second[p].Contains(newIDs[p]) {
			t.Errorf("p%d second output %s misses new input", p, second[p].Format(in))
		}
		if m := sys.Procs[p].(*Snapshot); m.Invocations() != 2 {
			t.Errorf("p%d invocations = %d", p, m.Invocations())
		}
	}
	// Containment across everything.
	all := append(append([]view.View{}, first...), second...)
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if !all[i].ComparableWith(all[j]) {
				t.Errorf("outputs %d and %d incomparable: %s vs %s",
					i, j, all[i].Format(in), all[j].Format(in))
			}
		}
	}
}

func TestSnapshotOutputsHelper(t *testing.T) {
	sys, _, err := NewSnapshotSystem(Config{Inputs: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	outs, ok := SnapshotOutputs(sys)
	if ok[0] || ok[1] {
		t.Error("fresh system reported outputs")
	}
	_ = outs
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{},
		{Inputs: []string{"a"}, Registers: 65},
		{Inputs: []string{"a"}, Wirings: [][]int{{0}, {0}}},
	}
	for i, c := range cases {
		if _, _, err := NewSnapshotSystem(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, _, err := NewWriteScanSystem(c); err == nil {
			t.Errorf("case %d accepted by write-scan", i)
		}
	}
	// Bad wiring contents surface from anonmem.
	if _, _, err := NewSnapshotSystem(Config{Inputs: []string{"a"}, Wirings: [][]int{{5}}}); err == nil {
		t.Error("bad wiring accepted")
	}
}

func TestSnapshotStepCountScalesSolo(t *testing.T) {
	// A solo processor needs M writes to fill all registers, then N clean
	// scans: total steps Θ(N·M). Check the exact solo count: the first
	// M−1 scans are dirty (empty cells), then N clean scans raise the
	// level from 0 to N. Each iteration is 1 write + M reads.
	for n := 1; n <= 6; n++ {
		sys, _, err := NewSnapshotSystem(Config{Inputs: []string{"x"}, Registers: n, Level: n})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(sys, sched.NewSolo(1), maxSteps(n), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != sched.StopAllDone {
			t.Fatalf("n=%d did not finish", n)
		}
		// The level can only rise from L to L+1 once all m registers hold
		// level-L cells, which takes a full write round: level L is first
		// reached at iteration m·L, so termination takes m·n iterations of
		// (1 write + m reads), plus the output step.
		wantIter := n * n
		want := wantIter*(1+n) + 1
		if res.Steps != want {
			t.Errorf("n=m=%d: steps = %d, want %d", n, res.Steps, want)
		}
	}
}
