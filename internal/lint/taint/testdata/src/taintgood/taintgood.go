// Package taintgood holds clean code the taint analyzer must stay
// silent on: identity handled in observer-side structures, machine
// state built from non-identity data, and one justified suppression.
package taintgood

import (
	"fmt"

	"machine"
)

// M is machine-shaped and clean.
type M struct {
	slot int
	done bool
}

func (m *M) Pending() []int            { return nil }
func (m *M) Advance(choice int, w int) {}
func (m *M) Done() bool                { return m.done }

// Observe keeps ghost identity strictly in observer state: a trace
// record is not machine-shaped, so identity may flow into it freely.
type traceRecord struct {
	who  int
	what string
}

func Observe(info machine.StepInfo) traceRecord {
	return traceRecord{who: info.Proc, what: fmt.Sprintf("step by %d", info.Proc)}
}

// FillClean stores derived-but-identity-free data in the machine.
func FillClean(m *M, xs []int) {
	m.slot = len(xs)
}

// LoopBound uses an identity parameter only as a loop bound; nothing
// flows into machine state.
func LoopBound(m *M, p int) {
	n := 0
	for i := 0; i < p; i++ {
		n++
	}
	m.slot = 7
}

// Justified carries an individually justified suppression: the fixture
// stand-in for canon's π-fold, where hashing identity is the quotient
// map itself.
func Justified(m *M, info machine.StepInfo) {
	//lint:ignore anonlint/taint fixture: mirrored jointly with the symmetry group, orbit-invariant by construction
	m.slot = info.Proc
}

// W has a state-word encoder fed only identity-free data.
type W struct{ bits uint64 }

func (w W) Encode(dst []uint64) []uint64 { return append(dst, w.bits) }

// EncodeClean encodes without identity in the buffer.
func EncodeClean(w W, xs []int) []uint64 {
	return w.Encode(make([]uint64, 0, len(xs)))
}

// report is an observer record with an Encode method of a different
// shape (a serializer): identity flowing into it is not a state word.
type report struct{ out []string }

func (r *report) Encode(v any) error {
	r.out = append(r.out, fmt.Sprint(v))
	return nil
}

// SerializeObserver hands identity to a non-encoder Encode.
func SerializeObserver(r *report, info machine.StepInfo) error {
	return r.Encode(info.Proc)
}
