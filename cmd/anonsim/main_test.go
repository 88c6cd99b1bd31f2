package main

import (
	"fmt"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/exitcode"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
	"anonshm/internal/view"
)

// fakeMachine is a machine frozen in a chosen terminal (or running)
// state, so validateOutputs can be driven with hand-picked outputs.
type fakeMachine struct {
	out anonmem.Word // nil = still running
}

func (f *fakeMachine) Pending() []machine.Op {
	if f.out != nil {
		return nil
	}
	return []machine.Op{{Kind: machine.OpRead, Reg: 0}}
}
func (f *fakeMachine) Advance(choice int, read anonmem.Word) {}
func (f *fakeMachine) Done() bool                            { return f.out != nil }
func (f *fakeMachine) Output() anonmem.Word                  { return f.out }
func (f *fakeMachine) Clone() machine.Machine                { c := *f; return &c }
func (f *fakeMachine) StateKey() string                      { return fmt.Sprintf("fake:%v", f.out) }
func (f *fakeMachine) Encode(dst []uint64) []uint64 {
	return anonmem.AppendString(dst, f.StateKey())
}

func fakeSystem(t *testing.T, outs []anonmem.Word) *machine.System {
	t.Helper()
	n := len(outs)
	mem, err := anonmem.New(1, core.EmptyCell, anonmem.IdentityWirings(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]machine.Machine, n)
	for i := range procs {
		procs[i] = &fakeMachine{out: outs[i]}
	}
	sys, err := machine.NewSystem(mem, procs)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestValidateOutputs drives the post-run validation with hand-built
// outputs: valid snapshot chains and agreeing decisions pass; every
// invariant breach comes back as an exitcode.Violation.
func TestValidateOutputs(t *testing.T) {
	in := view.NewInterner()
	a, b, c := in.Intern("a"), in.Intern("b"), in.Intern("c")
	cell := func(ids ...view.ID) core.Cell {
		v := view.Empty()
		for _, id := range ids {
			v = v.With(id)
		}
		return core.Cell{View: v}
	}
	inputs := []string{"a", "b"}
	ids := []view.ID{a, b}

	cases := []struct {
		name      string
		algo      string
		outs      []anonmem.Word
		violation bool
	}{
		{"full snapshots", "snapshot", []anonmem.Word{cell(a, b), cell(a, b)}, false},
		{"comparable chain", "snapshot", []anonmem.Word{cell(a), cell(a, b)}, false},
		{"one still running", "snapshot", []anonmem.Word{cell(a, b), nil}, false},
		{"incomparable outputs", "snapshot", []anonmem.Word{cell(a), cell(b)}, true},
		{"misses own input", "snapshot", []anonmem.Word{cell(b), cell(a, b)}, true},
		{"exceeds inputs", "snapshot", []anonmem.Word{cell(a, c), nil}, true},
		{"unchecked algorithm", "writescan", []anonmem.Word{cell(b), cell(a)}, false},
		// Two groups ("a", "b"): names live in 1..3 and distinct groups
		// must take distinct names.
		{"renaming valid", "renaming", []anonmem.Word{renaming.Name(1), renaming.Name(3)}, false},
		{"renaming one running", "renaming", []anonmem.Word{renaming.Name(2), nil}, false},
		{"renaming name too large", "renaming", []anonmem.Word{renaming.Name(4), nil}, true},
		{"renaming name zero", "renaming", []anonmem.Word{renaming.Name(0), nil}, true},
		{"renaming cross-group collision", "renaming", []anonmem.Word{renaming.Name(2), renaming.Name(2)}, true},
		{"consensus agrees", "consensus", []anonmem.Word{consensus.Decision("a"), consensus.Decision("a")}, false},
		{"consensus disagrees", "consensus", []anonmem.Word{consensus.Decision("a"), consensus.Decision("b")}, true},
		{"consensus invalid value", "consensus", []anonmem.Word{consensus.Decision("z"), consensus.Decision("z")}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateOutputs(tc.algo, inputs, ids, fakeSystem(t, tc.outs))
			if got := exitcode.Code(err) == exitcode.Violation; got != tc.violation {
				t.Errorf("validateOutputs = %v, want violation=%v", err, tc.violation)
			}
			if err != nil && !tc.violation {
				t.Errorf("unexpected non-violation error: %v", err)
			}
		})
	}

	// Processors of the SAME group may share a name — that is the whole
	// point of group renaming — and a third group widens the name space.
	t.Run("renaming same-group share", func(t *testing.T) {
		err := validateOutputs("renaming", []string{"a", "a"}, []view.ID{a, a},
			fakeSystem(t, []anonmem.Word{renaming.Name(1), renaming.Name(1)}))
		if err != nil {
			t.Errorf("same-group shared name rejected: %v", err)
		}
	})
	t.Run("renaming three groups", func(t *testing.T) {
		err := validateOutputs("renaming", []string{"a", "b", "c"}, []view.ID{a, b, c},
			fakeSystem(t, []anonmem.Word{renaming.Name(6), renaming.Name(1), renaming.Name(3)}))
		if err != nil {
			t.Errorf("valid 3-group renaming rejected: %v", err)
		}
	})
}
