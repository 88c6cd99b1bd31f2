package trace

import (
	"strings"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
	"anonshm/internal/sched"
)

type word string

func (w word) Key() string                  { return string(w) }
func (w word) Encode(dst []uint64) []uint64 { return anonmem.AppendString(dst, string(w)) }

// pingpong writes its tag, reads register 0, then outputs.
type pingpong struct {
	tag word
	pc  int
}

func (m *pingpong) Pending() []machine.Op {
	switch m.pc {
	case 0:
		return []machine.Op{{Kind: machine.OpWrite, Reg: 0, Word: m.tag}}
	case 1:
		return []machine.Op{{Kind: machine.OpRead, Reg: 0}}
	case 2:
		return []machine.Op{{Kind: machine.OpOutput, Word: m.tag}}
	default:
		return nil
	}
}
func (m *pingpong) Advance(int, anonmem.Word) { m.pc++ }
func (m *pingpong) Done() bool                { return m.pc >= 3 }
func (m *pingpong) Output() anonmem.Word {
	if !m.Done() {
		return nil
	}
	return m.tag
}
func (m *pingpong) Clone() machine.Machine { cp := *m; return &cp }
func (m *pingpong) StateKey() string       { return string(m.tag) + string(rune('0'+m.pc)) }
func (m *pingpong) Encode(dst []uint64) []uint64 {
	return anonmem.AppendString(dst, m.StateKey())
}

func runPingpong(t *testing.T, rec *Recorder) *machine.System {
	t.Helper()
	mem, err := anonmem.New(1, word("-"), anonmem.IdentityWirings(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := machine.NewSystem(mem, []machine.Machine{
		&pingpong{tag: "a"}, &pingpong{tag: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// a writes, b overwrites, a reads (from b), b reads (from b), outputs.
	s := &sched.Scripted{Script: sched.Procs(0, 1, 0, 1, 0, 1)}
	if _, err := sched.Run(sys, s, 100, rec); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestRecorderEventsAndReadsFrom(t *testing.T) {
	rec := &Recorder{}
	runPingpong(t, rec)
	if rec.Len() != 6 {
		t.Fatalf("recorded %d events", rec.Len())
	}
	edges := rec.ReadsFrom()
	// a reads from b (step 3), b reads from b (step 4).
	if len(edges) != 2 {
		t.Fatalf("edges = %v", edges)
	}
	if edges[0].Reader != 0 || edges[0].Writer != 1 {
		t.Errorf("edge 0 = %+v", edges[0])
	}
	if edges[1].Reader != 1 || edges[1].Writer != 1 {
		t.Errorf("edge 1 = %+v", edges[1])
	}
}

func TestRecorderSteps(t *testing.T) {
	rec := &Recorder{}
	runPingpong(t, rec)
	steps := rec.Steps()
	if steps[0] != 3 || steps[1] != 3 {
		t.Errorf("steps = %v", steps)
	}
}

func TestOverwrites(t *testing.T) {
	rec := &Recorder{}
	runPingpong(t, rec)
	// b's write replaced a's differing word: exactly one destructive
	// overwrite.
	if got := rec.Overwrites(); got != 1 {
		t.Errorf("overwrites = %d, want 1", got)
	}
}

func TestRecorderSnapshots(t *testing.T) {
	rec := &Recorder{
		WordFormat: func(w anonmem.Word) string { return "<" + w.Key() + ">" },
		ViewFormat: func(sys *machine.System, p int) string {
			return sys.Procs[p].StateKey()
		},
	}
	runPingpong(t, rec)
	ev := rec.Events[1] // after b's overwrite
	if len(ev.Registers) != 1 || ev.Registers[0] != "<b>" {
		t.Errorf("registers = %v", ev.Registers)
	}
	if len(ev.Views) != 2 {
		t.Errorf("views = %v", ev.Views)
	}
}

func TestRenderFigure(t *testing.T) {
	rec := &Recorder{
		WordFormat: func(w anonmem.Word) string { return w.Key() },
		ViewFormat: func(sys *machine.System, p int) string { return sys.Procs[p].StateKey() },
	}
	runPingpong(t, rec)
	out := rec.RenderFigure(DescribeStep)
	for _, want := range []string{"step", "action", "r1", "view[p1]", "view[p2]", "p2 overwrites p1 in r1", "p1 reads r1", "p1 outputs"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFigureEmpty(t *testing.T) {
	rec := &Recorder{}
	if got := rec.RenderFigure(DescribeStep); !strings.Contains(got, "empty") {
		t.Errorf("empty render = %q", got)
	}
}

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xxxx", "y"}, {"z", "w"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.HasPrefix(lines[0], "a   ") {
		t.Errorf("header not padded: %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("no separator: %q", lines[1])
	}
}

func TestDescribeStepKinds(t *testing.T) {
	cases := []struct {
		info machine.StepInfo
		want string
	}{
		{machine.StepInfo{Proc: 0, Op: machine.Op{Kind: machine.OpWrite}, Global: 2, PrevWriter: anonmem.NoWriter}, "p1 writes r3"},
		{machine.StepInfo{Proc: 1, Op: machine.Op{Kind: machine.OpWrite}, Global: 0, PrevWriter: 0}, "p2 overwrites p1 in r1"},
		{machine.StepInfo{Proc: 2, Op: machine.Op{Kind: machine.OpRead}, Global: 1}, "p3 reads r2"},
		{machine.StepInfo{Proc: 0, Op: machine.Op{Kind: machine.OpOutput}}, "p1 outputs"},
	}
	for _, c := range cases {
		if got := DescribeStep(Event{Info: c.info}); got != c.want {
			t.Errorf("DescribeStep = %q, want %q", got, c.want)
		}
	}
}
