package store

import (
	"os"
	"sync"
)

// diskFrontier is the out-of-core work queue: a head batch and a tail
// batch in RAM with a FIFO chain of spilled segments between them.
// Pushes land on the tail; when the in-RAM entry count crosses the
// budget, the oldest half of the tail is written out as one segment
// (dropping the live states — their paths suffice). Pops drain the
// head, then reload the oldest segment, then fall through to the tail,
// so the global service order is exactly the in-RAM order — a
// breadth-first search explores the same sequence whether or not
// anything spilled.
// Thieves steal only from the in-RAM tail, never from disk.
type diskFrontier struct {
	mu     sync.Mutex
	st     *Store
	order  Order
	maxRAM int

	head    []Entry
	headIdx int
	segs    []segRef
	tail    []Entry
	tailIdx int
}

// segRef is one spilled segment file.
type segRef struct {
	path  string
	count int
	bytes int64
}

// diskEntryEstimate is the assumed RAM cost of one in-RAM frontier
// entry (system clone + path nodes + slack), used to turn the byte
// budget into an entry budget.
const diskEntryEstimate = 512

// minFrontierRAM floors the in-RAM entry budget: spilling pays only in
// batches.
const minFrontierRAM = 128

func newDiskFrontier(s *Store, _ int, order Order, budget int64) *diskFrontier {
	maxRAM := int(budget / diskEntryEstimate)
	if maxRAM < minFrontierRAM {
		maxRAM = minFrontierRAM
	}
	return &diskFrontier{st: s, order: order, maxRAM: maxRAM}
}

func (d *diskFrontier) NeedsPath() bool { return true }

func (d *diskFrontier) Push(e Entry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tail = append(d.tail, e)
	if d.inRAM() > d.maxRAM {
		return d.spillLocked()
	}
	return nil
}

func (d *diskFrontier) inRAM() int {
	return (len(d.head) - d.headIdx) + (len(d.tail) - d.tailIdx)
}

// spillLocked writes the oldest half of the tail as one segment.
func (d *diskFrontier) spillLocked() error {
	live := d.tail[d.tailIdx:]
	take := len(live) / 2
	if take == 0 {
		return nil
	}
	sp := d.st.cfg.Trace.StartArgs("store.spill", "frontier spill",
		map[string]any{"entries": take})
	defer sp.End()
	batch := live[:take]
	path := d.st.segPath()
	bytes, err := writeSegFile(path, batch)
	if err != nil {
		return err
	}
	d.segs = append(d.segs, segRef{path: path, count: take, bytes: bytes})
	rest := live[take:]
	n := copy(d.tail, rest)
	for i := n; i < len(d.tail); i++ {
		d.tail[i] = Entry{}
	}
	d.tail = d.tail[:n]
	d.tailIdx = 0
	d.st.stats.frontierSpills.Add(1)
	d.st.stats.diskWritten.Add(bytes)
	d.st.stats.diskBytes.Add(bytes)
	return nil
}

// loadLocked reads one segment (oldest for FIFO, newest for LIFO) into
// the head and deletes its file.
func (d *diskFrontier) loadLocked() error {
	sp := d.st.cfg.Trace.Start("store.spill", "frontier load")
	defer sp.End()
	var ref segRef
	if d.order == LIFO {
		ref = d.segs[len(d.segs)-1]
		d.segs = d.segs[:len(d.segs)-1]
	} else {
		ref = d.segs[0]
		d.segs = d.segs[1:]
	}
	entries, err := readSegFile(ref.path)
	if err != nil {
		return err
	}
	os.Remove(ref.path)
	d.head = entries
	d.headIdx = 0
	d.st.stats.frontierLoads.Add(1)
	d.st.stats.diskBytes.Add(-ref.bytes)
	return nil
}

func (d *diskFrontier) Pop() (Entry, bool, error) {
	d.mu.Lock()
	var e Entry
	switch {
	case d.order == LIFO:
		// Newest first: tail end, then the newest segment, then head.
		if d.tailIdx < len(d.tail) {
			e = d.tail[len(d.tail)-1]
			d.tail[len(d.tail)-1] = Entry{}
			d.tail = d.tail[:len(d.tail)-1]
			break
		}
		if len(d.segs) > 0 {
			if err := d.loadLocked(); err != nil {
				d.mu.Unlock()
				return Entry{}, false, err
			}
			d.tail, d.tailIdx = d.head, 0
			d.head, d.headIdx = nil, 0
			e = d.tail[len(d.tail)-1]
			d.tail[len(d.tail)-1] = Entry{}
			d.tail = d.tail[:len(d.tail)-1]
			break
		}
		if d.headIdx < len(d.head) {
			e = d.head[len(d.head)-1]
			d.head[len(d.head)-1] = Entry{}
			d.head = d.head[:len(d.head)-1]
			break
		}
		d.mu.Unlock()
		return Entry{}, false, nil
	default: // FIFO: head, then the oldest segment, then tail.
		if d.headIdx >= len(d.head) && len(d.segs) > 0 {
			if err := d.loadLocked(); err != nil {
				d.mu.Unlock()
				return Entry{}, false, err
			}
		}
		if d.headIdx < len(d.head) {
			e = d.head[d.headIdx]
			d.head[d.headIdx] = Entry{}
			d.headIdx++
			if d.headIdx >= len(d.head) {
				d.head, d.headIdx = nil, 0
			}
			break
		}
		if d.tailIdx < len(d.tail) {
			e = d.tail[d.tailIdx]
			d.tail[d.tailIdx] = Entry{}
			d.tailIdx++
			if d.tailIdx >= len(d.tail) {
				d.tail, d.tailIdx = d.tail[:0], 0
			}
			break
		}
		d.mu.Unlock()
		return Entry{}, false, nil
	}
	d.mu.Unlock()
	if err := d.st.Replay(&e); err != nil {
		return Entry{}, false, err
	}
	return e, true, nil
}

func (d *diskFrontier) StealHalf() []Entry {
	d.mu.Lock()
	defer d.mu.Unlock()
	avail := len(d.tail) - d.tailIdx
	if avail <= 0 {
		return nil
	}
	take := (avail + 1) / 2
	out := make([]Entry, take)
	copy(out, d.tail[len(d.tail)-take:])
	cut := len(d.tail) - take
	for i := cut; i < len(d.tail); i++ {
		d.tail[i] = Entry{}
	}
	d.tail = d.tail[:cut]
	return out
}

func (d *diskFrontier) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.inRAM()
	for _, s := range d.segs {
		n += s.count
	}
	return n
}

func (d *diskFrontier) Snapshot(fn func(Entry) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := d.headIdx; i < len(d.head); i++ {
		if err := fn(d.head[i]); err != nil {
			return err
		}
	}
	for _, ref := range d.segs {
		entries, err := readSegFile(ref.path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	for i := d.tailIdx; i < len(d.tail); i++ {
		if err := fn(d.tail[i]); err != nil {
			return err
		}
	}
	return nil
}

func (d *diskFrontier) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.segs {
		os.Remove(s.path)
		d.st.stats.diskBytes.Add(-s.bytes)
	}
	d.segs = nil
	d.head, d.tail = nil, nil
	return nil
}
