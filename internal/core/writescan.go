package core

import (
	"fmt"
	"strconv"
	"strings"

	"anonshm/internal/anonmem"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// WriteScan is the non-terminating write-scan loop of Section 4 (Figure 1).
//
// The processor starts with the view {input} and forever alternates between
// (a) writing its view to one register it has not written since it last
// wrote all of them — the paper's write-fairness requirement — and (b) a
// scan reading all M registers one by one, after which everything read is
// added to the view.
//
// The machine never terminates; it exists to study the eventual pattern:
// which views can be maintained forever (stable views), and what structure
// they form (Theorem 4.8: a DAG with a unique source).
type WriteScan struct {
	m         int     // number of registers
	input     view.ID // initial input (symmetry reduction only)
	nondet    bool    // expose all fair write choices to the explorer
	phase     phase
	v         view.View
	unwritten uint64 // bitmask over local register indices, fairness bookkeeping
	scanIdx   int
	acc       view.View // union of views read during the current scan
	scans     int       // completed scans, for stabilization detection
}

type phase uint8

const (
	phaseWrite phase = iota + 1
	phaseScan
)

// allRegs returns the full unwritten mask for m registers.
func allRegs(m int) uint64 { return (uint64(1) << uint(m)) - 1 }

// NewWriteScan returns a write-scan machine over m registers whose initial
// view is {input}. If nondet is true, Pending exposes every fair choice of
// register to write (the PlusCal `with` nondeterminism); otherwise the
// machine deterministically writes the lowest-indexed unwritten register.
func NewWriteScan(m int, input view.ID, nondet bool) *WriteScan {
	if m <= 0 || m > 64 {
		panic(fmt.Sprintf("core: register count %d out of range [1,64]", m))
	}
	return &WriteScan{
		m:         m,
		input:     input,
		nondet:    nondet,
		phase:     phaseWrite,
		v:         view.Of(input),
		unwritten: allRegs(m),
	}
}

var _ machine.Machine = (*WriteScan)(nil)
var _ Viewer = (*WriteScan)(nil)

// View implements Viewer.
func (w *WriteScan) View() view.View { return w.v }

// Scans returns the number of completed scans.
func (w *WriteScan) Scans() int { return w.scans }

// ScanProgress reports whether the machine is mid-scan and how many local
// registers it has read in the current scan.
func (w *WriteScan) ScanProgress() (scanning bool, readLocals int) {
	if w.phase != phaseScan {
		return false, 0
	}
	return true, w.scanIdx
}

// Pending implements machine.Machine.
func (w *WriteScan) Pending() []machine.Op {
	switch w.phase {
	case phaseWrite:
		word := Cell{View: w.v}
		if !w.nondet {
			r := lowestBit(w.unwritten)
			return []machine.Op{{Kind: machine.OpWrite, Reg: r, Word: word}}
		}
		ops := make([]machine.Op, 0, w.m)
		for r := 0; r < w.m; r++ {
			if w.unwritten&(1<<uint(r)) != 0 {
				ops = append(ops, machine.Op{Kind: machine.OpWrite, Reg: r, Word: word})
			}
		}
		return ops
	case phaseScan:
		return []machine.Op{{Kind: machine.OpRead, Reg: w.scanIdx}}
	default:
		panic(fmt.Sprintf("core: write-scan in invalid phase %d", w.phase))
	}
}

// Advance implements machine.Machine.
func (w *WriteScan) Advance(choice int, read anonmem.Word) {
	switch w.phase {
	case phaseWrite:
		r := w.writtenReg(choice)
		w.unwritten &^= 1 << uint(r)
		if w.unwritten == 0 {
			w.unwritten = allRegs(w.m)
		}
		w.phase = phaseScan
		w.scanIdx = 0
		w.acc = view.Empty()
	case phaseScan:
		cell, ok := read.(Cell)
		if !ok {
			panic(fmt.Sprintf("core: write-scan read unexpected word %T", read))
		}
		w.acc = w.acc.Union(cell.View)
		w.scanIdx++
		if w.scanIdx == w.m {
			w.v = w.v.Union(w.acc)
			w.phase = phaseWrite
			w.scans++
		}
	}
}

// writtenReg resolves which local register the given pending choice writes.
func (w *WriteScan) writtenReg(choice int) int {
	if !w.nondet {
		return lowestBit(w.unwritten)
	}
	idx := 0
	for r := 0; r < w.m; r++ {
		if w.unwritten&(1<<uint(r)) != 0 {
			if idx == choice {
				return r
			}
			idx++
		}
	}
	panic(fmt.Sprintf("core: write-scan choice %d out of range", choice))
}

func lowestBit(mask uint64) int {
	for r := 0; r < 64; r++ {
		if mask&(1<<uint(r)) != 0 {
			return r
		}
	}
	panic("core: empty register mask")
}

// Done implements machine.Machine; the write-scan loop never terminates.
func (w *WriteScan) Done() bool { return false }

// Output implements machine.Machine.
func (w *WriteScan) Output() anonmem.Word { return nil }

// Clone implements machine.Machine.
func (w *WriteScan) Clone() machine.Machine {
	cp := *w
	return &cp
}

// StateKey implements machine.Machine.
func (w *WriteScan) StateKey() string {
	var sb strings.Builder
	sb.WriteString("ws:")
	sb.WriteString(w.v.Key())
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatUint(w.unwritten, 16))
	sb.WriteByte(':')
	if w.phase == phaseWrite {
		sb.WriteByte('w')
	} else {
		sb.WriteByte('s')
		sb.WriteString(strconv.Itoa(w.scanIdx))
		sb.WriteByte(':')
		sb.WriteString(w.acc.Key())
	}
	return sb.String()
}

// writeScanTag opens a WriteScan encoding, as "ws:" opens its StateKey.
const writeScanTag = 'w'<<8 | 's'

// Encode implements machine.Machine: the tag, the view and unwritten
// mask, the phase and, mid-scan, the scan index and accumulated view.
func (w *WriteScan) Encode(dst []uint64) []uint64 { return w.EncodeRelabeled(dst, nil) }

// SymmetryClass identifies the machine's program and parameters for the
// symmetry-reduction layer (canon.Symmetric). Like the snapshot machine,
// the write-scan loop is value-oblivious, so the input is absent and
// relabeling is supported instead.
func (w *WriteScan) SymmetryClass() string {
	class := "ws:m" + strconv.Itoa(w.m)
	if w.nondet {
		return class + ":nd1"
	}
	return class + ":nd0"
}

// InputID returns the machine's input (canon.Relabelable).
func (w *WriteScan) InputID() view.ID { return w.input }

// EncodeRelabeled appends the Encode the machine would have if every
// input ID in its state were replaced via beta (identity past its
// length; canon.Relabelable).
func (w *WriteScan) EncodeRelabeled(dst []uint64, beta []view.ID) []uint64 {
	dst = append(dst, writeScanTag)
	dst = w.v.EncodeRelabeled(dst, beta)
	dst = append(dst, w.unwritten, uint64(w.phase))
	if w.phase == phaseScan {
		dst = append(dst, uint64(w.scanIdx))
		dst = w.acc.EncodeRelabeled(dst, beta)
	}
	return dst
}

// boolWord encodes a flag as one word.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
