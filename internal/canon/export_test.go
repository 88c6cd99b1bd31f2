package canon

import (
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// Mirror is one bound group element, exposed to the external oracle
// tests: slot q of the mirrored state holds processor ProcInv[q]'s
// state, global register g holds register RegInv[g]'s word (nil RegInv:
// ρ = id), and input IDs are relabeled by Beta (nil: β = id).
type Mirror struct {
	ProcInv []int
	RegInv  []int
	Beta    []view.ID
}

// Mirrors returns h's group elements with, for each, a function hashing
// a state's mirror under that element alone (before aux is folded in).
// The identity hasher has the single identity element.
func Mirrors(h Hasher, n int) ([]Mirror, []func(*machine.System) uint64) {
	g, ok := h.(*groupHasher)
	if !ok {
		id := make([]int, n)
		for p := range id {
			id[p] = p
		}
		return []Mirror{{ProcInv: id}}, []func(*machine.System) uint64{
			func(sys *machine.System) uint64 { return h.Fingerprint(sys, 0) },
		}
	}
	ms := make([]Mirror, len(g.elems))
	hs := make([]func(*machine.System) uint64, len(g.elems))
	for i, e := range g.elems {
		ms[i] = Mirror{ProcInv: e.procInv, RegInv: e.regInv, Beta: e.beta}
		one := &groupHasher{elems: []element{e}, m: g.m}
		hs[i] = func(sys *machine.System) uint64 { return one.Fingerprint(sys, 0) }
	}
	return ms, hs
}
