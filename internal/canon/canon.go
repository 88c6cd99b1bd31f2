// Package canon canonicalizes explorer states under the symmetries of
// the fully-anonymous shared-memory model before they are fingerprinted,
// so the explorer stores one representative per symmetry orbit instead
// of every orbit member.
//
// The model's defining property — processors are interchangeable and
// reach the registers only through private wiring permutations — is pure
// symmetry: a group element is a triple (π, ρ, β) of a processor
// permutation π, a register permutation ρ and an input-value relabeling
// β, and two global states related by an admissible triple are
// behaviorally indistinguishable. A triple is admissible when
//
//   - π maps every processor to one with the same SymmetryClass (same
//     program, same parameters);
//   - ρ is induced by the wirings: σ_{π(p)} = ρ∘σ_p for every p (with
//     ProcSymmetry, ρ is required to be the identity, i.e. π may only
//     exchange identically-wired processors);
//   - β is induced by the inputs: β(input_p) = input_{π(p)} must be a
//     well-defined bijection, and when β is not the identity every
//     machine must support Relabelable (value-oblivious algorithms like
//     Figure 1/Figure 3 do; rank- or label-ordering algorithms like
//     Figure 4 renaming and Figure 5 consensus do not, and instead fold
//     their input into SymmetryClass so only equal-input processors are
//     exchanged).
//
// Under these rules the mirrored execution steps in lockstep: when
// processor p steps from state s, processor π(p) takes the β-relabeled
// step from the mirrored state, touching global register ρ(g) instead of
// g. The canonical fingerprint of a state is the minimum, over all
// admissible triples, of the hash of the mirrored state; orbit members
// therefore share a fingerprint and are merged by the explorer's
// deduplication. Soundness does not require the admissible set to be
// closed under composition: equal fingerprints still imply (modulo the
// usual 64-bit hash collision odds) that some mirror of one state equals
// some mirror of the other, i.e. the states share an orbit, and the
// explorer's coverage argument only needs that.
//
// The reduction is sound only for orbit-invariant checks: Options
// callbacks (Invariant, Prune, Aux) must not distinguish states within
// one orbit. All of the repository's checks qualify except the
// non-atomicity witness search, which tracks a fixed candidate view in
// its auxiliary state and therefore pins canon.Identity.
//
// This package inspects processor identity by construction — it is the
// quotient map, not algorithm code — and is therefore the one non-lint
// package exempted from the anonymity analyzer's boundary: machine code
// must never call into it.
package canon

import (
	"fmt"
	"math/bits"
	"sync"

	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// Canonicalizer chooses the symmetry group states are quotiented by.
// Bind inspects a system's fixed structure (machine types, wirings,
// inputs) once, up front, and returns the Hasher the explorer calls per
// state. Implementations must be usable as flag defaults: stateless
// values whose String names the -symmetry spelling.
type Canonicalizer interface {
	// Bind computes the admissible symmetry group of init and returns a
	// Hasher for states reachable from it. The Hasher is read-only and
	// safe for concurrent use by the parallel engine's workers.
	Bind(init *machine.System) (Hasher, error)
	// String names the canonicalizer ("none", "proc", "full").
	String() string
}

// Hasher fingerprints states under a bound symmetry group.
type Hasher interface {
	// Fingerprint hashes the canonical representative of sys's orbit,
	// folding aux in afterwards (aux is orbit-independent by contract).
	Fingerprint(sys *machine.System, aux uint64) uint64
	// GroupSize is the number of admissible group elements (1 = no
	// reduction beyond exact-state deduplication).
	GroupSize() int
}

// Symmetric is implemented by machines that may be exchanged by a
// processor permutation. The contract: two machines of one system with
// equal SymmetryClass are interchangeable programs — exchanging their
// entire local states (with registers and all other machines untouched)
// yields a behaviorally equivalent global state. Machines that cannot
// relabel input values (no Relabelable) must fold their input into the
// class, so only equal-input processors are ever exchanged. A system
// containing any machine without Symmetric gets the trivial group.
type Symmetric interface {
	// SymmetryClass returns a canonical encoding of the machine's
	// program and parameters (not its mutable state).
	SymmetryClass() string
}

// Relabelable is implemented by machines whose state encodings can be
// rewritten under a bijective relabeling of input-value IDs — the β
// component of a group element. Only algorithms oblivious to value
// identity (using views solely through set operations) qualify.
type Relabelable interface {
	// InputID returns the machine's input value ID; β is induced from
	// these (β(input_p) = input_{π(p)}).
	InputID() view.ID
	// EncodeRelabeled appends the Encode the machine would have if every
	// input ID id in its state were replaced by beta[id] (IDs past
	// len(beta) unchanged). beta permutes 0..len(beta)-1.
	EncodeRelabeled(dst []uint64, beta []view.ID) []uint64
}

// WordRelabeler is implemented by register words whose encodings can be
// rewritten under an input-ID relabeling. Group elements with a
// non-identity β skip (soundly) any state holding a word without it.
type WordRelabeler interface {
	// EncodeRelabeled appends the Encode the word would have if every
	// input ID id in it were replaced by beta[id] (IDs past len(beta)
	// unchanged).
	EncodeRelabeled(dst []uint64, beta []view.ID) []uint64
}

// Identity is the trivial canonicalizer: no symmetry reduction, states
// are fingerprinted exactly as stored.
type Identity struct{}

// Bind implements Canonicalizer.
func (Identity) Bind(init *machine.System) (Hasher, error) { return identityHasher{}, nil }

// String implements Canonicalizer.
func (Identity) String() string { return "none" }

// ProcSymmetry quotients by processor permutations alone: π may exchange
// processors with equal SymmetryClass and identical wirings (ρ = id).
type ProcSymmetry struct{}

// Bind implements Canonicalizer.
func (ProcSymmetry) Bind(init *machine.System) (Hasher, error) { return bindGroup(init, false) }

// String implements Canonicalizer.
func (ProcSymmetry) String() string { return "proc" }

// FullSymmetry quotients by joint processor and register permutations:
// π may exchange processors whose wirings agree up to a global register
// relabeling ρ = σ_{π(0)}∘σ_0⁻¹.
type FullSymmetry struct{}

// Bind implements Canonicalizer.
func (FullSymmetry) Bind(init *machine.System) (Hasher, error) { return bindGroup(init, true) }

// String implements Canonicalizer.
func (FullSymmetry) String() string { return "full" }

var (
	_ Canonicalizer = Identity{}
	_ Canonicalizer = ProcSymmetry{}
	_ Canonicalizer = FullSymmetry{}
)

// Symmetry is the command-line selector for the three canonicalizers.
// The zero value is None. *Symmetry implements flag.Value.
type Symmetry uint8

const (
	// None selects Identity.
	None Symmetry = iota
	// Proc selects ProcSymmetry.
	Proc
	// Full selects FullSymmetry.
	Full
)

// String implements flag.Value.
func (s Symmetry) String() string {
	switch s {
	case None:
		return "none"
	case Proc:
		return "proc"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Symmetry(%d)", uint8(s))
	}
}

// Set implements flag.Value.
func (s *Symmetry) Set(v string) error {
	switch v {
	case "", "none":
		*s = None
	case "proc":
		*s = Proc
	case "full":
		*s = Full
	default:
		return fmt.Errorf("canon: unknown symmetry %q (want none, proc or full)", v)
	}
	return nil
}

// Canonicalizer returns the canonicalizer the selector names.
func (s Symmetry) Canonicalizer() Canonicalizer {
	switch s {
	case Proc:
		return ProcSymmetry{}
	case Full:
		return FullSymmetry{}
	default:
		return Identity{}
	}
}

// Fingerprints hash a state's word encoding (identityHasher,
// groupHasher.hashUnder) with the xxHash64 word round and avalanche,
// consuming one uint64 at a time.
const (
	prime1 = 0x9e3779b185ebca87
	prime2 = 0xc2b2ae3d27d4eb4f
	prime3 = 0x165667b19e3779f9
	prime4 = 0x85ebca77c2b2ae63
	prime5 = 0x27d4eb2f165667c5
)

// hashInit is the hash state before the first word.
const hashInit = prime5

// hashWord folds one word into the running hash h.
func hashWord(h, w uint64) uint64 {
	w = bits.RotateLeft64(w*prime2, 31) * prime1
	return bits.RotateLeft64(h^w, 27)*prime1 + prime4
}

// hashWords folds words into the running hash h.
func hashWords(h uint64, words []uint64) uint64 {
	for _, w := range words {
		h = hashWord(h, w)
	}
	return h
}

// hashFinish avalanches a running hash so every input bit reaches every
// output bit.
func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

// mixAux folds the auxiliary value into a finished fingerprint.
func mixAux(fp, aux uint64) uint64 {
	if aux == 0 {
		return fp
	}
	return fp ^ (aux+0x9e3779b97f4a7c15)*0xff51afd7ed558ccd
}

// scratch is the reusable encoding buffer of one Fingerprint call:
// words holds register and machine encodings back to back, and ends[i]
// is the end offset in words of the i-th encoded register or machine.
type scratch struct {
	words []uint64
	ends  []int
}

// scratchPool recycles scratch buffers, so fingerprinting allocates
// nothing in steady state while hashers stay safe for concurrent use.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// identityHasher hashes states exactly: the words of the registers in
// global order, then of every machine in processor order, then the crash
// mask, with aux folded in last.
type identityHasher struct{}

// Fingerprint implements Hasher.
func (identityHasher) Fingerprint(sys *machine.System, aux uint64) uint64 {
	sc := scratchPool.Get().(*scratch)
	words := sc.words[:0]
	for g := 0; g < sys.Mem.M(); g++ {
		words = sys.Mem.CellAt(g).Encode(words)
	}
	for _, m := range sys.Procs {
		words = m.Encode(words)
	}
	h := hashWord(hashWords(hashInit, words), sys.CrashMask())
	sc.words = words
	scratchPool.Put(sc)
	return mixAux(hashFinish(h), aux)
}

// GroupSize implements Hasher.
func (identityHasher) GroupSize() int { return 1 }
