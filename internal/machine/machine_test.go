package machine

import (
	"fmt"
	"strings"
	"testing"

	"anonshm/internal/anonmem"
)

type word string

func (w word) Key() string                  { return string(w) }
func (w word) Encode(dst []uint64) []uint64 { return anonmem.AppendString(dst, string(w)) }

// echoMachine writes its tag to local register 0, reads local register 1,
// then outputs what it read. It exercises all three op kinds.
type echoMachine struct {
	tag  word
	pc   int // 0=write, 1=read, 2=output, 3=done
	seen anonmem.Word
}

func (m *echoMachine) Pending() []Op {
	switch m.pc {
	case 0:
		return []Op{{Kind: OpWrite, Reg: 0, Word: m.tag}}
	case 1:
		return []Op{{Kind: OpRead, Reg: 1}}
	case 2:
		return []Op{{Kind: OpOutput, Word: m.seen}}
	default:
		return nil
	}
}

func (m *echoMachine) Advance(_ int, read anonmem.Word) {
	if m.pc == 1 {
		m.seen = read
	}
	m.pc++
}

func (m *echoMachine) Done() bool { return m.pc >= 3 }

func (m *echoMachine) Output() anonmem.Word {
	if !m.Done() {
		return nil
	}
	return m.seen
}

func (m *echoMachine) Clone() Machine {
	cp := *m
	return &cp
}

func (m *echoMachine) StateKey() string {
	seen := "-"
	if m.seen != nil {
		seen = m.seen.Key()
	}
	return fmt.Sprintf("echo:%s:%d:%s", m.tag, m.pc, seen)
}

func (m *echoMachine) Encode(dst []uint64) []uint64 {
	return anonmem.AppendString(dst, m.StateKey())
}

// brokenOutput claims an output op but never becomes Done.
type brokenOutput struct{ stepped bool }

func (m *brokenOutput) Pending() []Op {
	if m.stepped {
		return nil
	}
	return []Op{{Kind: OpOutput, Word: word("x")}}
}
func (m *brokenOutput) Advance(int, anonmem.Word) {}
func (m *brokenOutput) Done() bool                { return false }
func (m *brokenOutput) Output() anonmem.Word      { return nil }
func (m *brokenOutput) Clone() Machine            { cp := *m; return &cp }
func (m *brokenOutput) StateKey() string          { return "broken" }
func (m *brokenOutput) Encode(dst []uint64) []uint64 {
	return anonmem.AppendString(dst, m.StateKey())
}

func newEchoSystem(t *testing.T, perms [][]int) *System {
	t.Helper()
	mem, err := anonmem.New(2, word("init"), perms)
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Machine, len(perms))
	for i := range procs {
		procs[i] = &echoMachine{tag: word(fmt.Sprintf("p%d", i))}
	}
	sys, err := NewSystem(mem, procs)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	mem, _ := anonmem.New(2, word("i"), anonmem.IdentityWirings(2, 2))
	if _, err := NewSystem(mem, []Machine{&echoMachine{}}); err == nil {
		t.Error("accepted machine/wiring count mismatch")
	}
	if _, err := NewSystem(mem, []Machine{&echoMachine{}, nil}); err == nil {
		t.Error("accepted nil machine")
	}
	mem1, _ := anonmem.New(2, word("i"), anonmem.IdentityWirings(0, 2))
	_ = mem1 // IdentityWirings(0,2) yields no wirings; New should have failed:
	if _, err := anonmem.New(2, word("i"), anonmem.IdentityWirings(0, 2)); err == nil {
		t.Error("anonmem.New accepted zero processors")
	}
}

func TestStepSemantics(t *testing.T) {
	// p0 identity, p1 swapped: p1's local reg 1 is global reg 0, so p1
	// reads what p0 wrote to global 0.
	sys := newEchoSystem(t, [][]int{{0, 1}, {1, 0}})

	// p0 writes "p0" to global 0.
	info, err := sys.Step(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Op.Kind != OpWrite || info.Global != 0 || info.Overwrote.Key() != "init" || info.PrevWriter != anonmem.NoWriter {
		t.Errorf("write step info = %+v", info)
	}

	// p1 writes "p1" to its local 0 = global 1.
	if _, err := sys.Step(1, 0); err != nil {
		t.Fatal(err)
	}

	// p1 reads its local 1 = global 0, written by p0.
	info, err = sys.Step(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Op.Kind != OpRead || info.Global != 0 || info.Read.Key() != "p0" || info.ReadFrom != 0 {
		t.Errorf("read step info = %+v", info)
	}

	// p1 outputs.
	info, err = sys.Step(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Op.Kind != OpOutput || info.Output.Key() != "p0" {
		t.Errorf("output step info = %+v", info)
	}
	if !sys.Procs[1].Done() || sys.Enabled(1) {
		t.Error("p1 not done after output")
	}
	if sys.AllDone() {
		t.Error("AllDone with p0 still running")
	}
	if sys.DoneCount() != 1 {
		t.Errorf("DoneCount = %d", sys.DoneCount())
	}

	// Run p0 to completion: read global 1 ("p1"), output.
	if _, err := sys.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	if !sys.AllDone() {
		t.Error("system not done")
	}
	outs := sys.Outputs()
	if outs[0].Key() != "p1" || outs[1].Key() != "p0" {
		t.Errorf("outputs = [%v %v]", outs[0], outs[1])
	}
}

func TestStepErrors(t *testing.T) {
	sys := newEchoSystem(t, anonmem.IdentityWirings(1, 2))
	if _, err := sys.Step(-1, 0); err == nil {
		t.Error("negative proc accepted")
	}
	if _, err := sys.Step(5, 0); err == nil {
		t.Error("out-of-range proc accepted")
	}
	if _, err := sys.Step(0, 7); err == nil {
		t.Error("out-of-range choice accepted")
	}
	for i := 0; i < 3; i++ {
		if _, err := sys.Step(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Step(0, 0); err == nil {
		t.Error("step of terminated machine accepted")
	}
}

func TestOutputWithoutDoneIsError(t *testing.T) {
	mem, _ := anonmem.New(1, word("i"), anonmem.IdentityWirings(1, 1))
	sys, err := NewSystem(mem, []Machine{&brokenOutput{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step(0, 0); err == nil {
		t.Error("output step without Done accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	sys := newEchoSystem(t, anonmem.IdentityWirings(2, 2))
	cp := sys.Clone()
	if _, err := cp.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	if sys.Key() == cp.Key() {
		t.Error("stepping clone changed original key (or key insensitive)")
	}
	if sys.Mem.LastWriterAt(0) != anonmem.NoWriter {
		t.Error("clone step wrote into original memory")
	}
}

func TestKeyReflectsLocalState(t *testing.T) {
	a := newEchoSystem(t, anonmem.IdentityWirings(2, 2))
	b := newEchoSystem(t, anonmem.IdentityWirings(2, 2))
	if a.Key() != b.Key() {
		t.Error("identical fresh systems differ in key")
	}
	// A read changes no register but must change the key via local state.
	if _, err := a.Step(0, 0); err != nil { // write
		t.Fatal(err)
	}
	if _, err := b.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Error("same steps produced different keys")
	}
	if _, err := a.Step(0, 0); err != nil { // read: memory unchanged
		t.Fatal(err)
	}
	if a.Key() == b.Key() {
		t.Error("local-state-only difference not reflected in key")
	}
}

func TestOpKindAndOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpOutput.String() != "output" {
		t.Error("OpKind strings wrong")
	}
	if got := OpKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown OpKind string = %q", got)
	}
	if got := (Op{Kind: OpRead, Reg: 2}).String(); got != "read(r2)" {
		t.Errorf("read op string = %q", got)
	}
	if got := (Op{Kind: OpWrite, Reg: 1, Word: word("w")}).String(); got != "write(r1,w)" {
		t.Errorf("write op string = %q", got)
	}
	if got := (Op{Kind: OpOutput, Word: word("o")}).String(); got != "output(o)" {
		t.Errorf("output op string = %q", got)
	}
}

func TestNewSystemRejectsOver64Processors(t *testing.T) {
	// CrashMask and the explorer's fingerprints pack the crashed set as
	// one bit per processor in a uint64; a 65th processor's bit would be
	// silently dropped, aliasing distinct states.
	const n = 65
	mem, err := anonmem.New(2, word("i"), anonmem.IdentityWirings(n, 2))
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]Machine, n)
	for i := range procs {
		procs[i] = &echoMachine{tag: word("x")}
	}
	if _, err := NewSystem(mem, procs); err == nil {
		t.Error("accepted 65 processors despite the 64-bit crash-mask/fingerprint packing")
	}
}
