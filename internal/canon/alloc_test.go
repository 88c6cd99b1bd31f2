package canon_test

import (
	"testing"

	"anonshm/internal/canon"
	"anonshm/internal/machine"
)

// midRunSnapshot3 returns an N=3 snapshot system (distinct inputs,
// identity wirings, so full symmetry admits all six processor
// permutations, five with a non-identity β) a few steps into a run:
// registers hold non-empty views and one machine is mid-scan.
func midRunSnapshot3(t testing.TB) *machine.System {
	t.Helper()
	sys := snapSys(t, []string{"a", "b", "c"}, nil)
	for _, p := range []int{0, 1, 1, 2, 0} {
		if _, err := sys.Step(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// TestFingerprintAllocFree pins the word-fingerprint budget: zero
// allocations per call in steady state, under the identity hasher and
// under full symmetry with β ≠ id elements.
func TestFingerprintAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	sys := midRunSnapshot3(t)
	for _, c := range []canon.Canonicalizer{canon.Identity{}, canon.FullSymmetry{}} {
		h := bind(t, c, sys)
		if c.String() == "full" && h.GroupSize() != 6 {
			t.Fatalf("full symmetry group size %d, want 6", h.GroupSize())
		}
		if mirrors, _ := canon.Mirrors(h, sys.N()); c.String() == "full" && mirrors[1].Beta == nil {
			t.Fatal("no β ≠ id element to exercise relabeled encoding")
		}
		var sink uint64
		if n := testing.AllocsPerRun(200, func() { sink ^= h.Fingerprint(sys, 7) }); n != 0 {
			t.Errorf("%s: Fingerprint allocates %.1f times per call, want 0", c, n)
		}
		_ = sink
	}
}

// BenchmarkFingerprint measures one fingerprint of a mid-run N=3
// snapshot state: identity, and full symmetry (group of six).
func BenchmarkFingerprint(b *testing.B) {
	sys := midRunSnapshot3(b)
	for _, c := range []canon.Canonicalizer{canon.Identity{}, canon.FullSymmetry{}} {
		h, err := c.Bind(sys)
		if err != nil {
			b.Fatal(err)
		}
		name := "identity"
		if c.String() == "full" {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				h.Fingerprint(sys, 0)
			}
		})
	}
}
