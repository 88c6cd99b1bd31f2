package runtime

import (
	"fmt"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
	"anonshm/internal/tasks"
	"anonshm/internal/view"
)

type word string

func (w word) Key() string                  { return string(w) }
func (w word) Encode(dst []uint64) []uint64 { return anonmem.AppendString(dst, string(w)) }

func TestSharedMemoryBasics(t *testing.T) {
	sm, err := NewSharedMemory(2, word("init"), [][]int{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	sm.Write(1, 0, word("x")) // p1 local 0 = global 1
	if got := sm.Read(0, 1); got.Key() != "x" {
		t.Errorf("read = %v", got)
	}
	if got := sm.Read(0, 0); got.Key() != "init" {
		t.Errorf("untouched = %v", got)
	}
	snap := sm.Snapshot()
	if snap[0].Key() != "init" || snap[1].Key() != "x" {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestSharedMemoryValidation(t *testing.T) {
	if _, err := NewSharedMemory(2, word("i"), [][]int{{0, 0}}); err == nil {
		t.Error("bad wiring accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Registers: 1, Initial: word("i")}, nil); err == nil {
		t.Error("no machines accepted")
	}
	m := []machine.Machine{core.NewSnapshot(1, 1, 0, false)}
	if _, err := Run(Config{Initial: word("i")}, m); err == nil {
		t.Error("zero registers accepted")
	}
	if _, err := Run(Config{Registers: 1}, m); err == nil {
		t.Error("nil initial accepted")
	}
	if _, err := Run(Config{Registers: 1, Initial: word("i"), Wirings: [][]int{{0}, {0}}}, m); err == nil {
		t.Error("wiring count mismatch accepted")
	}
}

// TestConcurrentSnapshot runs the Figure 3 algorithm on real goroutines
// (exercised under -race in CI) and checks the snapshot-task outputs.
func TestConcurrentSnapshot(t *testing.T) {
	for _, n := range []int{2, 4, 8} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			in := view.NewInterner()
			machines := make([]machine.Machine, n)
			inputs := make([]string, n)
			ids := make([]view.ID, n)
			for i := 0; i < n; i++ {
				inputs[i] = fmt.Sprintf("v%d", i)
				ids[i] = in.Intern(inputs[i])
				machines[i] = core.NewSnapshot(n, n, ids[i], true)
			}
			outcome, err := Run(Config{
				Registers: n,
				Initial:   core.EmptyCell,
				Seed:      int64(n),
				Yield:     true,
			}, machines)
			if err != nil {
				t.Fatal(err)
			}
			outs := make([]view.View, n)
			for p := 0; p < n; p++ {
				if !outcome.Done[p] {
					t.Fatalf("p%d did not terminate (wait-freedom violated?)", p)
				}
				cell, ok := outcome.Outputs[p].(core.Cell)
				if !ok {
					t.Fatalf("p%d output %T", p, outcome.Outputs[p])
				}
				outs[p] = cell.View
				if !cell.View.Contains(ids[p]) {
					t.Errorf("p%d output misses own input", p)
				}
			}
			e := tasks.Execution{Groups: inputs}
			err = tasks.CheckStrongSnapshot(e, in, tasks.SnapshotViews(outs, outcome.Done))
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentRenaming runs Figure 4 on goroutines with duplicate groups.
func TestConcurrentRenaming(t *testing.T) {
	inputs := []string{"g1", "g2", "g1", "g3", "g2", "g3"}
	n := len(inputs)
	in := view.NewInterner()
	machines := make([]machine.Machine, n)
	for i, label := range inputs {
		machines[i] = renaming.New(n, n, in.Intern(label), false)
	}
	outcome, err := Run(Config{Registers: n, Initial: core.EmptyCell, Seed: 7, Yield: true}, machines)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]tasks.RenamingOutput, n)
	for p := 0; p < n; p++ {
		if !outcome.Done[p] {
			t.Fatalf("p%d did not terminate", p)
		}
		outs[p] = tasks.RenamingOutput{Name: int(outcome.Outputs[p].(renaming.Name)), Done: true}
	}
	e := tasks.Execution{Groups: inputs}
	if err := tasks.CheckGroupRenaming(e, tasks.RenamingParam, outs); err != nil {
		t.Error(err)
	}
	if err := tasks.CheckGroupRenamingBrute(e, tasks.RenamingParam, outs); err != nil {
		t.Error(err)
	}
}

// TestConcurrentConsensus runs Figure 5 on goroutines. Consensus is only
// obstruction-free, so a contended run may not finish; bound the steps,
// then finish sequentially — agreement and validity must hold throughout.
func TestConcurrentConsensus(t *testing.T) {
	inputs := []string{"x", "y", "z"}
	n := len(inputs)
	in := view.NewInterner()
	machines := make([]machine.Machine, n)
	for i, label := range inputs {
		cm, err := consensus.New(in, n, n, label, false)
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = cm
	}
	outcome, err := Run(Config{
		Registers:       n,
		Initial:         core.EmptyCell,
		Seed:            3,
		Yield:           true,
		MaxStepsPerProc: 30000,
	}, machines)
	if err != nil {
		t.Fatal(err)
	}
	// Finish any undecided machine solo (simulated; obstruction-freedom).
	for p := 0; p < n; p++ {
		if outcome.Done[p] {
			continue
		}
		m := machines[p]
		for steps := 0; len(m.Pending()) > 0; steps++ {
			if steps > 1_000_000 {
				t.Fatalf("p%d did not decide solo", p)
			}
			op := m.Pending()[0]
			switch op.Kind {
			case machine.OpRead:
				m.Advance(0, outcome.Memory.Read(p, op.Reg))
			case machine.OpWrite:
				outcome.Memory.Write(p, op.Reg, op.Word)
				m.Advance(0, nil)
			case machine.OpOutput:
				m.Advance(0, nil)
			}
		}
		outcome.Done[p] = true
		outcome.Outputs[p] = m.Output()
	}
	decided := ""
	for p := 0; p < n; p++ {
		d := string(outcome.Outputs[p].(consensus.Decision))
		valid := false
		for _, v := range inputs {
			if d == v {
				valid = true
			}
		}
		if !valid {
			t.Errorf("p%d decided non-input %q", p, d)
		}
		if decided == "" {
			decided = d
		} else if d != decided {
			t.Errorf("disagreement: %q vs %q", decided, d)
		}
	}
}

// TestWriteScanBoundedRun exercises a non-terminating machine with a step
// budget.
func TestWriteScanBoundedRun(t *testing.T) {
	in := view.NewInterner()
	machines := []machine.Machine{
		core.NewWriteScan(2, in.Intern("a"), false),
		core.NewWriteScan(2, in.Intern("b"), false),
	}
	outcome, err := Run(Config{
		Registers:       2,
		Initial:         core.EmptyCell,
		MaxStepsPerProc: 300,
		Wirings:         anonmem.RotationWirings(2, 2),
	}, machines)
	if err != nil {
		t.Fatal(err)
	}
	for p := range machines {
		if outcome.Done[p] {
			t.Errorf("write-scan terminated?")
		}
		if outcome.Steps[p] != 300 {
			t.Errorf("p%d steps = %d, want 300", p, outcome.Steps[p])
		}
	}
}

// TestManyConcurrentRuns hammers the runtime for race coverage.
func TestManyConcurrentRuns(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		in := view.NewInterner()
		n := 3
		machines := make([]machine.Machine, n)
		for i := 0; i < n; i++ {
			machines[i] = core.NewSnapshot(n, n, in.Intern(fmt.Sprintf("v%d", i%2)), true)
		}
		outcome, err := Run(Config{Registers: n, Initial: core.EmptyCell, Seed: seed}, machines)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			if !outcome.Done[p] {
				t.Fatalf("seed %d: p%d unfinished", seed, p)
			}
		}
	}
}
