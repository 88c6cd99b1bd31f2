package baseline

import (
	"fmt"
	"strconv"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
)

// Mark is the register word of the weak counter: an unset (zero value) or
// set flag.
type Mark bool

// Key implements anonmem.Word.
func (m Mark) Key() string {
	if m {
		return "1"
	}
	return "0"
}

// Encode implements anonmem.Word.
func (m Mark) Encode(dst []uint64) []uint64 {
	if m {
		return append(dst, 1)
	}
	return append(dst, 0)
}

var _ anonmem.Word = Mark(false)

// UnsetMark is the initial register contents for weak-counter systems.
const UnsetMark = Mark(false)

// WeakCounter is (the core of) the Guerraoui–Ruppert weak counter that
// underlies their processor-anonymous atomic snapshot: processors race
// along a one-dimensional array of registers, and an increment scans for
// the first unset register, sets it, and returns its position.
//
// The construction assumes all processors share the SAME ordering of the
// registers — a common starting point and direction for the race. Under
// fully-anonymous wirings no such shared order exists: processors race
// along their private orders, two of them can claim the same "position"
// through different registers, and increments stop being monotone. The
// accompanying tests and experiment demonstrate exactly this failure,
// which is why the paper cannot reuse Guerraoui and Ruppert's approach
// (Section 8).
type WeakCounter struct {
	m     int
	phase wcPhase
	pos   int // current local register
	out   int
}

type wcPhase uint8

const (
	wcProbe wcPhase = iota + 1 // read register pos
	wcClaim                    // write Mark(true) to register pos
	wcOutput
	wcDone
)

// NewWeakCounter returns a weak-counter machine over m registers; the
// machine performs one GetAndIncrement and outputs the obtained value
// (1-based position in the processor's private order, or m+1 when the
// array is exhausted).
func NewWeakCounter(m int) *WeakCounter {
	if m <= 0 {
		panic(fmt.Sprintf("baseline: register count %d", m))
	}
	return &WeakCounter{m: m, phase: wcProbe}
}

var _ machine.Machine = (*WeakCounter)(nil)

// Value is the weak counter's output word.
type Value int

// Key implements anonmem.Word.
func (v Value) Key() string { return strconv.Itoa(int(v)) }

// Encode implements anonmem.Word.
func (v Value) Encode(dst []uint64) []uint64 { return append(dst, uint64(v)) }

var _ anonmem.Word = Value(0)

// Pending implements machine.Machine.
func (w *WeakCounter) Pending() []machine.Op {
	switch w.phase {
	case wcProbe:
		if w.pos >= w.m {
			// Ran off the array: the counter is full; report m+1.
			return []machine.Op{{Kind: machine.OpOutput, Word: Value(w.m + 1)}}
		}
		return []machine.Op{{Kind: machine.OpRead, Reg: w.pos}}
	case wcClaim:
		return []machine.Op{{Kind: machine.OpWrite, Reg: w.pos, Word: Mark(true)}}
	case wcOutput:
		return []machine.Op{{Kind: machine.OpOutput, Word: Value(w.out)}}
	case wcDone:
		return nil
	default:
		panic("baseline: invalid weak-counter phase")
	}
}

// Advance implements machine.Machine.
func (w *WeakCounter) Advance(_ int, read anonmem.Word) {
	switch w.phase {
	case wcProbe:
		if w.pos >= w.m {
			w.out = w.m + 1
			w.phase = wcDone
			return
		}
		mark, ok := read.(Mark)
		if !ok {
			panic(fmt.Sprintf("baseline: weak counter read %T", read))
		}
		if mark {
			w.pos++
			return
		}
		w.phase = wcClaim
	case wcClaim:
		w.out = w.pos + 1
		w.phase = wcOutput
	case wcOutput:
		w.phase = wcDone
	case wcDone:
		panic("baseline: Advance on terminated machine")
	}
}

// Done implements machine.Machine.
func (w *WeakCounter) Done() bool { return w.phase == wcDone }

// Output implements machine.Machine.
func (w *WeakCounter) Output() anonmem.Word {
	if w.phase != wcDone {
		return nil
	}
	return Value(w.out)
}

// Clone implements machine.Machine.
func (w *WeakCounter) Clone() machine.Machine {
	cp := *w
	return &cp
}

// StateKey implements machine.Machine.
func (w *WeakCounter) StateKey() string {
	return fmt.Sprintf("wc:%d:%d:%d", w.phase, w.pos, w.out)
}

// weakCounterTag opens a WeakCounter encoding, as "wc:" opens its
// StateKey.
const weakCounterTag = 'w'<<8 | 'c'

// Encode implements machine.Machine: the tag, phase, position and output.
func (w *WeakCounter) Encode(dst []uint64) []uint64 {
	return append(dst, weakCounterTag, uint64(w.phase), uint64(w.pos), uint64(w.out))
}
