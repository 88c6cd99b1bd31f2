package canon_test

import (
	"flag"
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
)

// The symmetry layer only works if the machines and register words
// actually expose the interfaces it quotients by.
var (
	_ canon.Symmetric     = (*core.Snapshot)(nil)
	_ canon.Relabelable   = (*core.Snapshot)(nil)
	_ canon.Symmetric     = (*core.WriteScan)(nil)
	_ canon.Relabelable   = (*core.WriteScan)(nil)
	_ canon.WordRelabeler = core.Cell{}
	_ canon.Symmetric     = (*renaming.Renaming)(nil)
	_ canon.Symmetric     = (*consensus.Consensus)(nil)
)

func snapSys(t testing.TB, inputs []string, wirings [][]int) *machine.System {
	t.Helper()
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: inputs, Wirings: wirings})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func bind(t *testing.T, c canon.Canonicalizer, sys *machine.System) canon.Hasher {
	t.Helper()
	h, err := c.Bind(sys)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestGroupSizes pins the admissible group for hand-checkable systems.
func TestGroupSizes(t *testing.T) {
	idWirings := [][]int{{0, 1}, {0, 1}}
	swapWirings := [][]int{{0, 1}, {1, 0}}
	for _, c := range []struct {
		name string
		can  canon.Canonicalizer
		sys  *machine.System
		want int
	}{
		// Distinct inputs, identical wirings: the swap is admitted with
		// the input relabeling β = (a b); snapshot is value-oblivious.
		{"proc-id-wirings", canon.ProcSymmetry{}, snapSys(t, []string{"a", "b"}, idWirings), 2},
		{"full-id-wirings", canon.FullSymmetry{}, snapSys(t, []string{"a", "b"}, idWirings), 2},
		// Different wirings: proc symmetry demands ρ = id and rejects the
		// swap; full symmetry absorbs the difference into ρ.
		{"proc-swap-wirings", canon.ProcSymmetry{}, snapSys(t, []string{"a", "b"}, swapWirings), 1},
		{"full-swap-wirings", canon.FullSymmetry{}, snapSys(t, []string{"a", "b"}, swapWirings), 2},
		// Inputs a,a,b: only the equal-input swap keeps β well-defined
		// (any π mixing the a's with b forces β(a) to two values).
		{"proc-split-inputs", canon.ProcSymmetry{},
			snapSys(t, []string{"a", "a", "b"}, [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}), 2},
		{"identity", canon.Identity{}, snapSys(t, []string{"a", "b"}, idWirings), 1},
	} {
		if got := bind(t, c.can, c.sys).GroupSize(); got != c.want {
			t.Errorf("%s: group size %d, want %d", c.name, got, c.want)
		}
	}
}

// TestGroupSizeRenaming: renaming ranks its own group among the others,
// so it is not value-oblivious — the class includes the input and only
// equal-input processors may be exchanged.
func TestGroupSizeRenaming(t *testing.T) {
	distinct, _, err := renaming.NewSystem(renaming.Config{Inputs: []string{"g1", "g2"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := bind(t, canon.ProcSymmetry{}, distinct).GroupSize(); got != 1 {
		t.Errorf("distinct-input renaming group size %d, want 1", got)
	}
	equal, _, err := renaming.NewSystem(renaming.Config{Inputs: []string{"g", "g"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := bind(t, canon.ProcSymmetry{}, equal).GroupSize(); got != 2 {
		t.Errorf("equal-input renaming group size %d, want 2", got)
	}
}

// TestOrbitEquivalenceProc: executions that differ only by which
// processor took the steps land on the same canonical fingerprint.
func TestOrbitEquivalenceProc(t *testing.T) {
	init := snapSys(t, []string{"a", "b"}, [][]int{{0, 1}, {0, 1}})
	proc := bind(t, canon.ProcSymmetry{}, init)
	ident := bind(t, canon.Identity{}, init)

	s1 := init.Clone()
	if _, err := s1.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	s2 := init.Clone()
	if _, err := s2.Step(1, 0); err != nil {
		t.Fatal(err)
	}
	if proc.Fingerprint(s1, 0) != proc.Fingerprint(s2, 0) {
		t.Error("permuted executions have different canonical fingerprints")
	}
	if ident.Fingerprint(s1, 0) == ident.Fingerprint(s2, 0) {
		t.Error("identity hasher merged distinct states")
	}
	if proc.Fingerprint(s1, 0) == proc.Fingerprint(s1, 1) {
		t.Error("aux not folded into the canonical fingerprint")
	}
	if proc.Fingerprint(s1, 0) != proc.Fingerprint(s1.Clone(), 0) {
		t.Error("canonical fingerprint not deterministic")
	}
}

// TestOrbitEquivalenceFull: when the wirings differ by a register
// permutation, only the joint (π, ρ) quotient merges the mirrored
// executions.
func TestOrbitEquivalenceFull(t *testing.T) {
	init := snapSys(t, []string{"a", "b"}, [][]int{{0, 1}, {1, 0}})
	full := bind(t, canon.FullSymmetry{}, init)
	proc := bind(t, canon.ProcSymmetry{}, init)

	s1 := init.Clone()
	if _, err := s1.Step(0, 0); err != nil {
		t.Fatal(err)
	}
	s2 := init.Clone()
	if _, err := s2.Step(1, 0); err != nil {
		t.Fatal(err)
	}
	if full.Fingerprint(s1, 0) != full.Fingerprint(s2, 0) {
		t.Error("full symmetry did not merge the register-permuted mirror")
	}
	if proc.Fingerprint(s1, 0) == proc.Fingerprint(s2, 0) {
		t.Error("proc symmetry merged states that differ by a register permutation")
	}
}

// TestCrashMaskMirrored: the crash mask is permuted along with the
// processors, so "processor 0 crashed" and "processor 1 crashed" share an
// orbit exactly when the processors do.
func TestCrashMaskMirrored(t *testing.T) {
	init := snapSys(t, []string{"g", "g"}, [][]int{{0, 1}, {0, 1}})
	proc := bind(t, canon.ProcSymmetry{}, init)
	ident := bind(t, canon.Identity{}, init)

	c0 := init.Clone()
	if _, err := c0.Crash(0); err != nil {
		t.Fatal(err)
	}
	c1 := init.Clone()
	if _, err := c1.Crash(1); err != nil {
		t.Fatal(err)
	}
	if proc.Fingerprint(c0, 0) != proc.Fingerprint(c1, 0) {
		t.Error("mirrored crash masks have different canonical fingerprints")
	}
	if ident.Fingerprint(c0, 0) == ident.Fingerprint(c1, 0) {
		t.Error("identity hasher merged distinct crash states")
	}
	if proc.Fingerprint(c0, 0) == proc.Fingerprint(init, 0) {
		t.Error("crash mask not folded into the canonical fingerprint")
	}
}

// TestIdentityElementCompatible: on a fully asymmetric system (trivial
// group) the canonical fingerprint degenerates to the identity hash, so
// turning symmetry on cannot perturb unreduced state counts.
func TestIdentityElementCompatible(t *testing.T) {
	sys, _, err := renaming.NewSystem(renaming.Config{Inputs: []string{"g1", "g2"}})
	if err != nil {
		t.Fatal(err)
	}
	proc := bind(t, canon.ProcSymmetry{}, sys)
	ident := bind(t, canon.Identity{}, sys)
	if proc.GroupSize() != 1 {
		t.Fatalf("group size %d, want trivial", proc.GroupSize())
	}
	for aux := uint64(0); aux < 3; aux++ {
		if proc.Fingerprint(sys, aux) != ident.Fingerprint(sys, aux) {
			t.Errorf("aux=%d: trivial-group fingerprint differs from identity hash", aux)
		}
	}
}

// TestSymmetrySelector: the -symmetry flag selector round-trips and maps
// to the right canonicalizers.
func TestSymmetrySelector(t *testing.T) {
	var s canon.Symmetry
	var _ flag.Value = &s
	for name, want := range map[string]canon.Symmetry{
		"none": canon.None, "proc": canon.Proc, "full": canon.Full,
	} {
		if err := s.Set(name); err != nil || s != want {
			t.Errorf("Set(%q) = %v, s=%v", name, err, s)
		}
		if s.String() != name {
			t.Errorf("String() = %q, want %q", s.String(), name)
		}
		if s.Canonicalizer().String() != name {
			t.Errorf("Canonicalizer().String() = %q, want %q", s.Canonicalizer().String(), name)
		}
	}
	if err := s.Set(""); err != nil || s != canon.None {
		t.Errorf("Set(\"\") = %v, s=%v", err, s)
	}
	if err := s.Set("bogus"); err == nil {
		t.Error("Set(bogus) accepted")
	}
}
