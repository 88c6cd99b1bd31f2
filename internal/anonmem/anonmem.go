// Package anonmem implements the fully-anonymous shared memory of Raynal
// and Taubenfeld as used by Losa and Gafni (PODC 2024, Section 2): M
// multi-writer multi-reader atomic registers that processors can only
// address through private, arbitrary wiring permutations fixed at
// initialization.
//
// A processor p issuing an instruction on its local register i actually
// operates on register[σ_p[i]]. The permutations are part of the adversary's
// choice; they are supplied (or generated) when the memory is created and
// never change.
//
// The memory also tracks ghost state — the last writer of every register —
// which the analyses in the paper (reads-from relations, Lemma 4.5/4.6,
// the Section 2.1 lower bound) are phrased in terms of. Ghost state does
// not influence algorithm behaviour and is excluded from Key.
package anonmem

import (
	"fmt"
	"math/rand"
	"strings"
)

// Word is the content of a single register. Implementations must be
// immutable value-like types; two words are equal iff their Keys are equal.
type Word interface {
	// Key returns a canonical string encoding of the word, for traces,
	// debugging and equality.
	Key() string
	// Encode appends the word's canonical encoding to dst and returns
	// the extended slice: the same fields Key renders, as uint64 words,
	// self-delimiting (variable-length parts carry a length prefix), so
	// two words are equal iff their encodings are. The exhaustive
	// explorer hashes these words; Encode must not allocate beyond
	// growing dst.
	Encode(dst []uint64) []uint64
}

// AppendString appends a self-delimiting word encoding of s to dst: its
// byte length, then its bytes packed eight to a word, little-endian.
func AppendString(dst []uint64, s string) []uint64 {
	dst = append(dst, uint64(len(s)))
	for i := 0; i < len(s); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(s); j++ {
			w |= uint64(s[i+j]) << (8 * j)
		}
		dst = append(dst, w)
	}
	return dst
}

// NoWriter marks a register that still holds its initial value.
const NoWriter = -1

// Memory is a fully-anonymous register file for N processors and M
// registers. It is not safe for concurrent use; the goroutine runtime in
// internal/runtime provides its own linearizable register file.
type Memory struct {
	cells      []Word
	perms      [][]int // perms[p][local] = global register index
	lastWriter []int   // ghost: global register index -> processor, or NoWriter
}

// New creates a memory with the given wiring permutations; perms[p] must be
// a permutation of 0..m-1 for every processor p, and every register starts
// holding initial.
func New(m int, initial Word, perms [][]int) (*Memory, error) {
	if m <= 0 {
		return nil, fmt.Errorf("anonmem: M must be positive, got %d", m)
	}
	if initial == nil {
		return nil, fmt.Errorf("anonmem: nil initial word")
	}
	if len(perms) == 0 {
		return nil, fmt.Errorf("anonmem: need at least one processor wiring")
	}
	for p, perm := range perms {
		if err := checkPermutation(perm, m); err != nil {
			return nil, fmt.Errorf("anonmem: processor %d: %w", p, err)
		}
	}
	cells := make([]Word, m)
	last := make([]int, m)
	for i := range cells {
		cells[i] = initial
		last[i] = NoWriter
	}
	cp := make([][]int, len(perms))
	for p, perm := range perms {
		cp[p] = append([]int(nil), perm...)
	}
	return &Memory{cells: cells, perms: cp, lastWriter: last}, nil
}

func checkPermutation(perm []int, m int) error {
	if len(perm) != m {
		return fmt.Errorf("wiring has %d entries, want %d", len(perm), m)
	}
	seen := make([]bool, m)
	for i, g := range perm {
		if g < 0 || g >= m {
			return fmt.Errorf("wiring entry %d out of range: %d", i, g)
		}
		if seen[g] {
			return fmt.Errorf("wiring maps two local registers to global %d", g)
		}
		seen[g] = true
	}
	return nil
}

// IdentityWirings returns wirings where every processor's local numbering
// coincides with the global one — the degenerate, non-anonymous case.
func IdentityWirings(n, m int) [][]int {
	perms := make([][]int, n)
	for p := range perms {
		perm := make([]int, m)
		for i := range perm {
			perm[i] = i
		}
		perms[p] = perm
	}
	return perms
}

// RandomWirings returns independent uniformly random wiring permutations
// for n processors over m registers, drawn from rng.
func RandomWirings(rng *rand.Rand, n, m int) [][]int {
	perms := make([][]int, n)
	for p := range perms {
		perms[p] = rng.Perm(m)
	}
	return perms
}

// RotationWirings returns wirings where processor p's local register i maps
// to global register (i+p) mod m. These produce maximal systematic
// misalignment and drive the covering scenarios of Section 4.
func RotationWirings(n, m int) [][]int {
	perms := make([][]int, n)
	for p := range perms {
		perm := make([]int, m)
		for i := range perm {
			perm[i] = (i + p) % m
		}
		perms[p] = perm
	}
	return perms
}

// N returns the number of processors wired to the memory.
func (mem *Memory) N() int { return len(mem.perms) }

// M returns the number of registers.
func (mem *Memory) M() int { return len(mem.cells) }

// Global translates processor p's local register index to the global one.
func (mem *Memory) Global(p, local int) int {
	return mem.perms[p][local]
}

// Wiring returns a copy of processor p's wiring permutation.
func (mem *Memory) Wiring(p int) []int {
	return append([]int(nil), mem.perms[p]...)
}

// ReadResult describes one atomic read.
type ReadResult struct {
	Word       Word
	Global     int // global index of the register read
	LastWriter int // processor that last wrote it, or NoWriter
}

// Read performs processor p's atomic read of its local register index.
func (mem *Memory) Read(p, local int) ReadResult {
	g := mem.perms[p][local]
	return ReadResult{Word: mem.cells[g], Global: g, LastWriter: mem.lastWriter[g]}
}

// WriteResult describes one atomic write.
type WriteResult struct {
	Global     int  // global index of the register written
	Overwrote  Word // previous contents
	PrevWriter int  // previous last writer, or NoWriter
}

// Write performs processor p's atomic write of w to its local register
// index.
func (mem *Memory) Write(p, local int, w Word) WriteResult {
	if w == nil {
		panic("anonmem: write of nil word")
	}
	g := mem.perms[p][local]
	res := WriteResult{Global: g, Overwrote: mem.cells[g], PrevWriter: mem.lastWriter[g]}
	mem.cells[g] = w
	mem.lastWriter[g] = p
	return res
}

// CellAt returns the current contents of the global register g (an
// omniscient-observer inspection used by analyses, never by algorithms).
func (mem *Memory) CellAt(g int) Word { return mem.cells[g] }

// Cells returns a copy of the register contents indexed globally.
func (mem *Memory) Cells() []Word {
	return append([]Word(nil), mem.cells...)
}

// LastWriterAt returns the ghost last-writer of global register g.
func (mem *Memory) LastWriterAt(g int) int { return mem.lastWriter[g] }

// LastWrittenBy returns the set of global registers whose last writer
// satisfies pred (with NoWriter passed for untouched registers). Analyses
// use this for the R_W / R_t^Ā sets of Section 4 and 5.
func (mem *Memory) LastWrittenBy(pred func(writer int) bool) []int {
	var out []int
	for g, w := range mem.lastWriter {
		if pred(w) {
			out = append(out, g)
		}
	}
	return out
}

// Clone returns an independent copy. The wiring permutations are shared:
// they are fixed at initialization and never mutated (New copies its
// input, and no method writes to perms), so sharing is safe and keeps
// cloning cheap for the exhaustive explorer.
func (mem *Memory) Clone() *Memory {
	return &Memory{
		cells:      append([]Word(nil), mem.cells...),
		perms:      mem.perms,
		lastWriter: append([]int(nil), mem.lastWriter...),
	}
}

// Key returns a canonical encoding of the register contents (global order).
// Ghost state and wirings are deliberately excluded: wirings are fixed per
// execution, and ghost state never influences behaviour.
func (mem *Memory) Key() string {
	var sb strings.Builder
	for i, c := range mem.cells {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(c.Key())
	}
	return sb.String()
}

// String renders the register contents for debugging.
func (mem *Memory) String() string {
	parts := make([]string, len(mem.cells))
	for i, c := range mem.cells {
		parts[i] = fmt.Sprintf("r%d=%s(w%d)", i+1, c.Key(), mem.lastWriter[i])
	}
	return "[" + strings.Join(parts, " ") + "]"
}
