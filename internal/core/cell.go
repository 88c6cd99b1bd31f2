// Package core implements the algorithmic contributions of Losa and Gafni,
// "Understanding Read-Write Wait-Free Coverings in the Fully-Anonymous
// Shared-Memory Model" (PODC 2024):
//
//   - the write-scan loop of Section 4 (Figure 1), whose infinite
//     executions exhibit the eventual-pattern structure (stable views form
//     a DAG with a unique source, Theorem 4.8);
//   - the wait-free snapshot-task algorithm of Section 5 (Figure 3), the
//     paper's main construction, which augments the write-scan loop with
//     levels so that a processor can detect that its view is the source of
//     the stable-view DAG and terminate;
//   - the long-lived snapshot of Section 7, a re-invocable variant used by
//     the obstruction-free consensus algorithm.
//
// All algorithms are expressed as machine.Machine state machines whose
// atomic steps match the PlusCal labels of the paper exactly: one register
// read or write per step, with the local computation after it folded into
// the same step.
package core

import (
	"strconv"

	"anonshm/internal/anonmem"
	"anonshm/internal/view"
)

// Cell is the register word used by the algorithms: a view (set of input
// values known to the writer) and, for the snapshot algorithm, the
// writer's level. The write-scan loop always writes Level 0. The initial
// contents of every register is EmptyCell (empty view, level 0), matching
// line 4 of Figure 3.
type Cell struct {
	View  view.View
	Level int
}

// EmptyCell is the initial register contents.
var EmptyCell = Cell{}

// Key implements anonmem.Word.
func (c Cell) Key() string {
	return c.View.Key() + ":" + strconv.Itoa(c.Level)
}

var _ anonmem.Word = Cell{}

// Encode implements anonmem.Word: the length-prefixed view, then the
// level.
func (c Cell) Encode(dst []uint64) []uint64 {
	return append(c.View.Encode(dst), uint64(c.Level))
}

// EncodeRelabeled appends the Encode the cell would have if every input
// ID in its view were replaced via beta (identity past its length). It
// implements the register-word half of the symmetry-reduction contract
// (canon.WordRelabeler).
func (c Cell) EncodeRelabeled(dst []uint64, beta []view.ID) []uint64 {
	return append(c.View.EncodeRelabeled(dst, beta), uint64(c.Level))
}

// Viewer is implemented by machines that maintain a view; analyses (stable
// views, GST detection) use it to observe local state without depending on
// a concrete machine type.
type Viewer interface {
	// View returns the machine's current view.
	View() view.View
}

// Leveler is implemented by machines that maintain a level.
type Leveler interface {
	// Level returns the machine's current level.
	Level() int
}
