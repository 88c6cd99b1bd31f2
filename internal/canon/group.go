package canon

import (
	"fmt"

	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// element is one admissible symmetry triple (π, ρ, β), stored as the
// inverse maps the hasher needs: slot q of the mirrored state holds the
// local state of processor procInv[q] = π⁻¹(q), and global register g of
// the mirrored state holds the word of register regInv[g] = ρ⁻¹(g).
type element struct {
	procInv []int
	// regInv is nil when ρ is the identity.
	regInv []int
	// beta maps input IDs to their relabeling, identity-extended past
	// its length; nil when β is the identity.
	beta []view.ID
}

// groupHasher fingerprints states as the minimum hash over the
// admissible group elements. Elements are fixed at Bind time; hashing is
// read-only, so one hasher serves all parallel workers.
type groupHasher struct {
	elems []element
	m     int // register count
}

var _ Hasher = (*groupHasher)(nil)

// bindGroup enumerates the processor permutations of init and keeps the
// admissible ones (see the package comment for the admission rules).
// full selects whether ρ may be a non-identity register permutation.
func bindGroup(init *machine.System, full bool) (*groupHasher, error) {
	n := init.N()
	m := init.Mem.M()
	// Crash masks are mirrored one bit per processor in a uint64
	// (machine.NewSystem enforces the same ceiling).
	if n > 64 {
		return nil, fmt.Errorf("canon: %d processors exceed the 64 supported by crash-mask fingerprints", n)
	}

	classes := make([]string, n)
	symmetric := true
	for p, mach := range init.Procs {
		if s, ok := mach.(Symmetric); ok {
			classes[p] = s.SymmetryClass()
		} else {
			symmetric = false
		}
	}
	inputs := make([]view.ID, n)
	relabelable := true
	for p, mach := range init.Procs {
		if r, ok := mach.(Relabelable); ok {
			inputs[p] = r.InputID()
		} else {
			relabelable = false
		}
	}
	wirings := make([][]int, n)
	for p := 0; p < n; p++ {
		wirings[p] = init.Mem.Wiring(p)
	}

	h := &groupHasher{m: m}
	permute(n, func(pi []int) {
		e, ok := admit(pi, classes, symmetric, inputs, relabelable, wirings, full)
		if ok {
			h.elems = append(h.elems, e)
		}
	})
	return h, nil
}

// admit checks the admission rules for one processor permutation and, on
// success, builds the element.
func admit(pi []int, classes []string, symmetric bool, inputs []view.ID, relabelable bool, wirings [][]int, full bool) (element, bool) {
	n := len(pi)
	identity := true
	for p, q := range pi {
		if p != q {
			identity = false
			break
		}
	}
	e := element{procInv: make([]int, n)}
	for p, q := range pi {
		e.procInv[q] = p
	}
	if identity {
		return e, true
	}
	if !symmetric {
		return element{}, false
	}
	for p := range pi {
		if classes[pi[p]] != classes[p] {
			return element{}, false
		}
	}

	// Wiring rule: σ_{π(p)} = ρ∘σ_p for every p, with ρ pinned by p = 0.
	m := len(wirings[0])
	rho := make([]int, m)
	if full {
		for i := 0; i < m; i++ {
			rho[wirings[0][i]] = wirings[pi[0]][i]
		}
	} else {
		for i := range rho {
			rho[i] = i
		}
	}
	for p := range pi {
		for i := 0; i < m; i++ {
			if rho[wirings[p][i]] != wirings[pi[p]][i] {
				return element{}, false
			}
		}
	}
	rhoIdentity := true
	for g, gp := range rho {
		if g != gp {
			rhoIdentity = false
			break
		}
	}
	if !rhoIdentity {
		e.regInv = make([]int, m)
		for g, gp := range rho {
			e.regInv[gp] = g
		}
	}

	// Input rule: β(input_p) = input_{π(p)} must be a well-defined
	// bijection. Machines without Relabelable vouch (via their
	// SymmetryClass, which must then include the input) that π only
	// exchanges equal-input processors, so β stays the identity.
	if !relabelable {
		return e, true
	}
	maxID := view.ID(0)
	for _, id := range inputs {
		if id > maxID {
			maxID = id
		}
	}
	const unset = view.ID(-1)
	beta := make([]view.ID, maxID+1)
	for i := range beta {
		beta[i] = unset
	}
	betaIdentity := true
	for p := range pi {
		a, b := inputs[p], inputs[pi[p]]
		if beta[a] == unset {
			beta[a] = b
		} else if beta[a] != b {
			return element{}, false // ill-defined: π splits an input class
		}
		if a != b {
			betaIdentity = false
		}
	}
	if betaIdentity {
		return e, true
	}
	hit := make([]bool, maxID+1)
	for i, b := range beta {
		if b == unset {
			beta[i] = view.ID(i)
			continue
		}
		if hit[b] {
			return element{}, false // not injective
		}
		hit[b] = true
	}
	e.beta = beta
	return e, true
}

// permute calls f with every permutation of 0..n-1. The identity comes
// first, so elems[0] is always the identity element.
func permute(n int, f func(pi []int)) {
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(append([]int(nil), cur...))
			return
		}
		for i := k; i < n; i++ {
			cur[k], cur[i] = cur[i], cur[k]
			rec(k + 1)
			cur[k], cur[i] = cur[i], cur[k]
		}
	}
	rec(0)
}

// Fingerprint implements Hasher: the minimum hash of sys's mirrors under
// the admissible elements, with aux folded in afterwards. Every register
// and machine is encoded once; each element then hashes those encodings
// in its mirrored order; an element with a non-identity β first
// re-encodes the state relabeled by β into a second section.
func (h *groupHasher) Fingerprint(sys *machine.System, aux uint64) uint64 {
	sc := scratchPool.Get().(*scratch)
	words, ends := sc.words[:0], sc.ends[:0]
	for g := 0; g < h.m; g++ {
		words = sys.Mem.CellAt(g).Encode(words)
		ends = append(ends, len(words))
	}
	for _, mach := range sys.Procs {
		words = mach.Encode(words)
		ends = append(ends, len(words))
	}
	plain := len(ends)
	mask := sys.CrashMask()

	best := ^uint64(0)
	for i := range h.elems {
		e := &h.elems[i]
		if e.beta == nil {
			best = min(best, h.hashUnder(e, words, ends[:plain], 0, mask))
			continue
		}
		var ok bool
		words, ends, ok = h.encodeRelabeled(sys, e.beta, words[:ends[plain-1]], ends[:plain])
		if ok {
			best = min(best, h.hashUnder(e, words, ends[plain:], ends[plain-1], mask))
		}
	}
	sc.words, sc.ends = words, ends
	scratchPool.Put(sc)
	// elems[0] is the identity, which always hashes, so best is a hash.
	return mixAux(best, aux)
}

// GroupSize implements Hasher.
func (h *groupHasher) GroupSize() int { return len(h.elems) }

// encodeRelabeled appends sys's registers and machines relabeled by beta
// to words, recording their end offsets in ends. It reports false when
// some register word cannot be relabeled: the element is then skipped,
// which costs reduction, never soundness.
func (h *groupHasher) encodeRelabeled(sys *machine.System, beta []view.ID, words []uint64, ends []int) ([]uint64, []int, bool) {
	for g := 0; g < h.m; g++ {
		wr, ok := sys.Mem.CellAt(g).(WordRelabeler)
		if !ok {
			return words, ends, false
		}
		words = wr.EncodeRelabeled(words, beta)
		ends = append(ends, len(words))
	}
	for _, mach := range sys.Procs {
		// β ≠ id is only admitted when every machine is Relabelable.
		words = mach.(Relabelable).EncodeRelabeled(words, beta)
		ends = append(ends, len(words))
	}
	return words, ends, true
}

// hashUnder hashes the mirror of a state under one element, in the
// layout of the identity hash: registers in global order, machines in
// processor order, then the mirrored crash mask. The state's registers
// and machines are already encoded in words, item i spanning
// words[ends[i-1]:ends[i]] (item 0 starts at start); registers come
// first.
func (h *groupHasher) hashUnder(e *element, words []uint64, ends []int, start int, mask uint64) uint64 {
	span := func(i int) []uint64 {
		lo := start
		if i > 0 {
			lo = ends[i-1]
		}
		return words[lo:ends[i]]
	}
	fp := uint64(hashInit)
	for g := 0; g < h.m; g++ {
		src := g
		if e.regInv != nil {
			src = e.regInv[g]
		}
		fp = hashWords(fp, span(src))
	}
	for _, p := range e.procInv {
		fp = hashWords(fp, span(h.m+p))
	}
	if mask != 0 {
		var mirrored uint64
		for q, p := range e.procInv {
			if mask&(1<<uint(p)) != 0 {
				mirrored |= 1 << uint(q)
			}
		}
		mask = mirrored
	}
	return hashFinish(hashWord(fp, mask))
}
