// Package baseline implements the comparators the paper positions itself
// against:
//
//   - the classic double-collect snapshot rule ("terminate when two
//     consecutive scans read the same values everywhere"), which Section 4
//     shows is NOT a valid termination rule in the fully-anonymous model —
//     the Figure 2 shadows complete arbitrarily many identical collects
//     while holding incomparable views;
//   - a Guerraoui–Ruppert-style weak counter (the core of their anonymous
//     atomic snapshot), whose register race fundamentally requires a
//     shared ordering of the registers and therefore breaks under
//     anonymous wirings (Section 8, Related work).
package baseline

import (
	"fmt"
	"strconv"
	"strings"

	"anonshm/internal/anonmem"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/view"
)

// DoubleCollect is the baseline snapshot rule: write your view once, then
// repeatedly scan all registers; when two consecutive scans return
// identical contents register by register, output your view. The
// write-scan structure (including fair rewrites of the view) matches
// Figure 1, so the Figure 2 pathology applies: the rule terminates with
// incomparable outputs under covering schedules.
type DoubleCollect struct {
	m         int
	v         view.View
	unwritten uint64
	phase     dcPhase
	scanIdx   int
	prev      []view.View // previous collect, register views
	cur       []view.View
	acc       view.View
	collects  int
	done      bool
	out       view.View
}

type dcPhase uint8

const (
	dcWrite dcPhase = iota + 1
	dcScan
	dcOutput
	dcDone
)

// NewDoubleCollect returns a double-collect machine over m registers with
// initial view {input}.
func NewDoubleCollect(m int, input view.ID) *DoubleCollect {
	if m <= 0 || m > 64 {
		panic(fmt.Sprintf("baseline: register count %d out of range", m))
	}
	return &DoubleCollect{
		m:         m,
		v:         view.Of(input),
		unwritten: (uint64(1) << uint(m)) - 1,
		phase:     dcWrite,
	}
}

var (
	_ machine.Machine = (*DoubleCollect)(nil)
	_ core.Viewer     = (*DoubleCollect)(nil)
)

// View implements core.Viewer.
func (d *DoubleCollect) View() view.View { return d.v }

// Collects returns the number of completed scans.
func (d *DoubleCollect) Collects() int { return d.collects }

// Pending implements machine.Machine.
func (d *DoubleCollect) Pending() []machine.Op {
	switch d.phase {
	case dcWrite:
		r := 0
		for ; r < d.m; r++ {
			if d.unwritten&(1<<uint(r)) != 0 {
				break
			}
		}
		return []machine.Op{{Kind: machine.OpWrite, Reg: r, Word: core.Cell{View: d.v}}}
	case dcScan:
		return []machine.Op{{Kind: machine.OpRead, Reg: d.scanIdx}}
	case dcOutput:
		return []machine.Op{{Kind: machine.OpOutput, Word: core.Cell{View: d.out}}}
	case dcDone:
		return nil
	default:
		panic("baseline: invalid phase")
	}
}

// Advance implements machine.Machine.
func (d *DoubleCollect) Advance(_ int, read anonmem.Word) {
	switch d.phase {
	case dcWrite:
		r := 0
		for ; r < d.m; r++ {
			if d.unwritten&(1<<uint(r)) != 0 {
				break
			}
		}
		d.unwritten &^= 1 << uint(r)
		if d.unwritten == 0 {
			d.unwritten = (uint64(1) << uint(d.m)) - 1
		}
		d.phase = dcScan
		d.scanIdx = 0
		d.cur = make([]view.View, 0, d.m)
		d.acc = view.Empty()
	case dcScan:
		cell, ok := read.(core.Cell)
		if !ok {
			panic(fmt.Sprintf("baseline: read unexpected word %T", read))
		}
		d.cur = append(d.cur, cell.View)
		d.acc = d.acc.Union(cell.View)
		d.scanIdx++
		if d.scanIdx == d.m {
			d.collects++
			same := d.prev != nil && equalViews(d.prev, d.cur)
			d.prev = d.cur
			d.v = d.v.Union(d.acc)
			if same {
				d.out = d.v
				d.phase = dcOutput
			} else {
				// Re-assert the view (fairly) and collect again.
				d.phase = dcWrite
			}
		}
	case dcOutput:
		d.phase = dcDone
	case dcDone:
		panic("baseline: Advance on terminated machine")
	}
}

func equalViews(a, b []view.View) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Done implements machine.Machine.
func (d *DoubleCollect) Done() bool { return d.phase == dcDone }

// Output implements machine.Machine.
func (d *DoubleCollect) Output() anonmem.Word {
	if d.phase != dcDone {
		return nil
	}
	return core.Cell{View: d.out}
}

// Clone implements machine.Machine.
func (d *DoubleCollect) Clone() machine.Machine {
	cp := *d
	cp.prev = append([]view.View(nil), d.prev...)
	cp.cur = append([]view.View(nil), d.cur...)
	return &cp
}

// StateKey implements machine.Machine.
func (d *DoubleCollect) StateKey() string {
	var sb strings.Builder
	sb.WriteString("dc:")
	sb.WriteString(d.v.Key())
	sb.WriteByte(':')
	sb.WriteString(strconv.FormatUint(d.unwritten, 16))
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(int(d.phase)))
	sb.WriteByte(':')
	sb.WriteString(strconv.Itoa(d.scanIdx))
	sb.WriteByte(':')
	writeKeys(&sb, d.prev)
	sb.WriteByte(';')
	writeKeys(&sb, d.cur)
	return sb.String()
}

// writeKeys renders a collect as its comma-separated view keys.
func writeKeys(sb *strings.Builder, vs []view.View) {
	for i, v := range vs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(v.Key())
	}
}

// doubleCollectTag opens a DoubleCollect encoding, as "dc:" opens its
// StateKey.
const doubleCollectTag = 'd'<<8 | 'c'

// Encode implements machine.Machine: the tag, view, unwritten mask,
// phase and scan index, then both collects, each a count followed by
// its views.
func (d *DoubleCollect) Encode(dst []uint64) []uint64 {
	dst = d.v.Encode(append(dst, doubleCollectTag))
	dst = append(dst, d.unwritten, uint64(d.phase), uint64(d.scanIdx), uint64(len(d.prev)))
	for _, v := range d.prev {
		dst = v.Encode(dst)
	}
	dst = append(dst, uint64(len(d.cur)))
	for _, v := range d.cur {
		dst = v.Encode(dst)
	}
	return dst
}
