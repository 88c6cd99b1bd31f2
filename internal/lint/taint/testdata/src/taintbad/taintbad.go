// Package taintbad seeds identity flows the syntactic anonymity
// analyzer cannot see: identity crossing helper returns, parameter
// chains, closures, per-processor tables and fingerprint inputs before
// reaching machine state.
package taintbad

import (
	"anonmem"
	"canon"
	"machine"
	"sched"
)

// M has the Pending/Advance/Done machine shape; its fields are
// innocently named, so shape- and name-based checks see nothing.
type M struct {
	slot int
	mark uint64
	done bool
}

func (m *M) Pending() []int            { return nil }
func (m *M) Advance(choice int, w int) {}
func (m *M) Done() bool                { return m.done }

// set is a machine mutator: its summary records param 1 reaching the
// machine field m.slot.
func (m *M) set(v int) { m.slot = v }

// whoWrote launders ghost identity through a helper return.
func whoWrote(r anonmem.ReadResult) int {
	return r.LastWriter
}

// StampWriter flows ghost identity through whoWrote into a machine
// field: invisible to the AST anonymity analyzer, a two-hop taint path
// here.
func StampWriter(m *M, r anonmem.ReadResult) {
	m.slot = whoWrote(r) // want `processor identity flows into machine-visible state: ghost identity ReadResult\.LastWriter .* returned from whoWrote .* stored in machine field M\.slot`
}

// route forwards its (innocently named) parameter into the machine
// through a second in-package hop — only the set summary, composed with
// route's own, reveals it.
func route(m *M, x int) {
	m.set(x)
}

// RouteIdentity drives the two-level chain: ghost source → route param →
// set param → machine field. Exercises the interprocedural fixed point.
func RouteIdentity(m *M, info machine.StepInfo) {
	route(m, info.ReadFrom) // want `processor identity flows into machine-visible state: ghost identity StepInfo\.ReadFrom .* passed to route`
}

// InstallRank takes an identity-named parameter: with no in-package
// caller, the name is the only evidence — it is a real source and the
// store reports at the sink inside the function.
func InstallRank(m *M, rank int) {
	m.slot = rank // want `processor identity flows into machine-visible state: identity parameter "rank" of InstallRank .* stored in machine field M\.slot`
}

// CaptureLeak stores identity into captured machine state from inside a
// closure.
func CaptureLeak(m *M, info machine.StepInfo) {
	stamp := func() {
		m.slot = info.Proc // want `processor identity flows into machine-visible state: ghost identity StepInfo\.Proc .* stored in machine field M\.slot`
	}
	stamp()
}

// FoldMask hashes the proc-keyed crash mask into a fingerprint: the
// canonicalization-output sink.
func FoldMask(h canon.Hasher, sys *machine.System) uint64 {
	return h.Fingerprint(sys.CrashMask()) // want `processor identity flows into machine-visible state: identity inspection System\.CrashMask .* hashed into fingerprint`
}

// PerProcTable reads a per-processor instrumentation table with an
// identity index and stores the element in machine state.
func PerProcTable(m *M, in *sched.Instrument, p int) {
	steps := in.ProcSteps()
	m.mark = uint64(steps[p]) // want `processor identity flows into machine-visible state: identity inspection Instrument\.ProcSteps .* stored in machine field M\.mark`
}

// BuildFromWiring leaks the wiring permutation σ through a composite
// literal.
func BuildFromWiring(mem *anonmem.Memory, p int) *M {
	return &M{slot: mem.Global(p, 0)} // want `processor identity flows into machine-visible state: identity inspection Memory\.Global .* stored in machine field M\.slot`
}

// W is a register-word stub with a state-word encoder: what it appends
// is hashed into fingerprints.
type W struct{ bits uint64 }

func (w W) Encode(dst []uint64) []uint64 { return append(dst, w.bits) }

// tag launders ghost identity through arithmetic in a helper return.
func tag(info machine.StepInfo) uint64 {
	return uint64(info.PrevWriter)*2 + 1
}

// EncodeWriter seeds the encoder buffer with laundered identity before
// the word appends its fields: identity reaches the fingerprinted words.
func EncodeWriter(w W, info machine.StepInfo) []uint64 {
	dst := []uint64{tag(info)}
	return w.Encode(dst) // want `processor identity flows into machine-visible state: ghost identity StepInfo\.PrevWriter .* returned from tag .* encoded into fingerprinted state words via Encode`
}
