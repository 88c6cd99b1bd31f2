package sched

import (
	"fmt"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
)

type word string

func (w word) Key() string                  { return string(w) }
func (w word) Encode(dst []uint64) []uint64 { return anonmem.AppendString(dst, string(w)) }

// counter takes `budget` write steps (each offering `fanout` register
// choices) and then outputs how many steps it took.
type counter struct {
	budget int
	fanout int
	taken  int
	done   bool
}

func (c *counter) Pending() []machine.Op {
	if c.done {
		return nil
	}
	if c.taken >= c.budget {
		return []machine.Op{{Kind: machine.OpOutput, Word: word(fmt.Sprintf("%d", c.taken))}}
	}
	ops := make([]machine.Op, c.fanout)
	for i := range ops {
		ops[i] = machine.Op{Kind: machine.OpWrite, Reg: i, Word: word(fmt.Sprintf("s%d", c.taken))}
	}
	return ops
}

func (c *counter) Advance(_ int, _ anonmem.Word) {
	if c.taken >= c.budget {
		c.done = true
		return
	}
	c.taken++
}

func (c *counter) Done() bool { return c.done }

func (c *counter) Output() anonmem.Word {
	if !c.done {
		return nil
	}
	return word(fmt.Sprintf("%d", c.taken))
}

func (c *counter) Clone() machine.Machine { cp := *c; return &cp }

func (c *counter) StateKey() string {
	return fmt.Sprintf("counter:%d/%d:%v", c.taken, c.budget, c.done)
}

func (c *counter) Encode(dst []uint64) []uint64 {
	return anonmem.AppendString(dst, c.StateKey())
}

func newCounterSystem(t *testing.T, budgets []int, fanout int) *machine.System {
	t.Helper()
	m := fanout
	if m == 0 {
		m = 1
	}
	mem, err := anonmem.New(m, word("init"), anonmem.IdentityWirings(len(budgets), m))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]machine.Machine, len(budgets))
	for i, b := range budgets {
		procs[i] = &counter{budget: b, fanout: fanout}
	}
	sys, err := machine.NewSystem(mem, procs)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRunRoundRobinCompletes(t *testing.T) {
	sys := newCounterSystem(t, []int{2, 5, 3}, 1)
	var rr RoundRobin
	res, err := Run(sys, &rr, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopAllDone {
		t.Fatalf("reason = %v", res.Reason)
	}
	// 2+5+3 writes plus 3 outputs.
	if res.Steps != 13 {
		t.Errorf("steps = %d, want 13", res.Steps)
	}
	outs := sys.Outputs()
	for i, want := range []string{"2", "5", "3"} {
		if outs[i].Key() != want {
			t.Errorf("output[%d] = %v, want %s", i, outs[i], want)
		}
	}
}

func TestRunMaxSteps(t *testing.T) {
	sys := newCounterSystem(t, []int{100}, 1)
	res, err := Run(sys, &RoundRobin{}, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopMaxSteps || res.Steps != 10 {
		t.Errorf("res = %+v", res)
	}
}

func TestRunObserverSeesEveryStep(t *testing.T) {
	sys := newCounterSystem(t, []int{3, 3}, 1)
	var seen []int
	obs := ObserverFunc(func(t int, info machine.StepInfo, _ *machine.System) {
		seen = append(seen, info.Proc)
	})
	res, err := Run(sys, &RoundRobin{}, 100, obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Steps {
		t.Errorf("observer saw %d steps, ran %d", len(seen), res.Steps)
	}
}

func TestRoundRobinSkipsDone(t *testing.T) {
	sys := newCounterSystem(t, []int{0, 5}, 1)
	// p0 terminates immediately (one output step), then RR must keep
	// scheduling p1 only.
	var rr RoundRobin
	res, err := Run(sys, &rr, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopAllDone {
		t.Fatalf("reason = %v", res.Reason)
	}
}

func TestRandomIsSeededAndComplete(t *testing.T) {
	runOnce := func(seed int64) []int {
		sys := newCounterSystem(t, []int{4, 4, 4}, 2)
		var order []int
		obs := ObserverFunc(func(_ int, info machine.StepInfo, _ *machine.System) {
			order = append(order, info.Proc)
		})
		r := NewRandom(seed)
		r.ChoiceRandom = true
		if _, err := Run(sys, r, 1000, obs); err != nil {
			t.Fatal(err)
		}
		if !sys.AllDone() {
			t.Fatal("random run did not complete")
		}
		return order
	}
	a := runOnce(1)
	b := runOnce(1)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed produced different executions")
	}
	c := runOnce(2)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds produced identical executions (suspicious)")
	}
}

func TestSoloRunsSequentially(t *testing.T) {
	sys := newCounterSystem(t, []int{2, 2}, 1)
	var order []int
	obs := ObserverFunc(func(_ int, info machine.StepInfo, _ *machine.System) {
		order = append(order, info.Proc)
	})
	if _, err := Run(sys, NewSolo(2), 100, obs); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestScripted(t *testing.T) {
	sys := newCounterSystem(t, []int{5, 5}, 1)
	s := &Scripted{Script: Procs(0, 1, 1, 0)}
	res, err := Run(sys, s, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopScheduler || res.Steps != 4 {
		t.Errorf("res = %+v", res)
	}
	if s.Remaining() != 0 {
		t.Errorf("remaining = %d", s.Remaining())
	}
}

func TestScriptedInvalidProcErrors(t *testing.T) {
	sys := newCounterSystem(t, []int{1}, 1)
	s := &Scripted{Script: Procs(7)}
	if _, err := Run(sys, s, 10, nil); err == nil {
		t.Error("scripted step of invalid processor did not error")
	}
}

func TestScriptedChoices(t *testing.T) {
	sys := newCounterSystem(t, []int{1}, 3)
	s := &Scripted{Script: []Step{{Proc: 0, Choice: 2}}}
	var regs []int
	obs := ObserverFunc(func(_ int, info machine.StepInfo, _ *machine.System) {
		regs = append(regs, info.Op.Reg)
	})
	if _, err := Run(sys, s, 10, obs); err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0] != 2 {
		t.Errorf("regs = %v, want [2]", regs)
	}
}

func TestSeqPhases(t *testing.T) {
	sys := newCounterSystem(t, []int{3, 3}, 1)
	var order []int
	obs := ObserverFunc(func(_ int, info machine.StepInfo, _ *machine.System) {
		order = append(order, info.Proc)
	})
	q := &Seq{Phases: []Phase{
		{S: &Scripted{Script: Procs(1, 1)}, Steps: -1}, // until script ends
		{S: &Solo{Order: []int{0, 1}}, Steps: 3},       // 3 solo steps of p0
		{S: &RoundRobin{}, Steps: -1},
	}}
	res, err := Run(sys, q, 100, obs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopAllDone {
		t.Fatalf("res = %+v", res)
	}
	wantPrefix := []int{1, 1, 0, 0, 0}
	for i, p := range wantPrefix {
		if order[i] != p {
			t.Fatalf("order = %v, want prefix %v", order, wantPrefix)
		}
	}
}

func TestCovererPrefersDestructiveWrites(t *testing.T) {
	// Two writers into one register: the coverer should always pick a
	// processor whose write changes contents when one exists.
	mem, err := anonmem.New(1, word("init"), anonmem.IdentityWirings(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	procs := []machine.Machine{
		&counter{budget: 3, fanout: 1},
		&counter{budget: 3, fanout: 1},
	}
	sys, err := machine.NewSystem(mem, procs)
	if err != nil {
		t.Fatal(err)
	}
	var cv Coverer
	res, err := Run(sys, &cv, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopAllDone {
		t.Errorf("coverer stalled: %+v", res)
	}
}

func TestStopReasonString(t *testing.T) {
	if StopAllDone.String() != "all-done" || StopMaxSteps.String() != "max-steps" || StopScheduler.String() != "scheduler-stopped" {
		t.Error("StopReason strings wrong")
	}
	if StopReason(99).String() == "" {
		t.Error("unknown StopReason empty")
	}
}
