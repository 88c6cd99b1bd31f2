package explore

import (
	"fmt"
	"strings"
	"time"

	"anonshm/internal/store"
)

// Stats instruments an exploration: how fast the engine ran, how much
// frontier it had to hold, how often deduplication paid off, and how
// evenly the parallel engine spread the work. Every engine fills it.
type Stats struct {
	// Engine is the engine that ran.
	Engine Engine
	// Symmetry names the canonicalizer the run fingerprinted under
	// ("none", "proc", "full").
	Symmetry string
	// GroupSize is the number of admissible symmetry-group elements the
	// canonicalizer bound for the initial system (1 = no reduction).
	GroupSize int
	// Workers is the number of expansion workers (1 for DFSEngine).
	Workers int
	// WallTime is the end-to-end duration of the search.
	WallTime time.Duration
	// StatesPerSec is States divided by WallTime.
	StatesPerSec float64
	// FrontierPeak is the largest number of discovered-but-unexpanded
	// states held at once (the stack for DFS, the union of all worker
	// deques for the parallel engine).
	FrontierPeak int
	// DedupLookups counts fingerprint-table probes (one per generated
	// successor, plus one for the initial state).
	DedupLookups int64
	// DedupHits counts probes that found an already-known state; the hit
	// rate DedupHits/DedupLookups is how much work fingerprinting saved.
	DedupHits int64
	// DedupHitRate is DedupHits/DedupLookups (0 when no lookups).
	DedupHitRate float64
	// WorkerSteps is the number of states expanded by each worker; a
	// skewed distribution means work stealing failed to balance the load.
	WorkerSteps []int64
	// StoreKind names the storage tier the run used ("mem", "disk").
	StoreKind string
	// Store counts the storage layer's work: spills, compactions, path
	// replays, checkpoints and disk bytes. All zero on the mem tier.
	Store store.Stats
}

// finalize derives the ratio fields once the raw counters are in.
func (s *Stats) finalize(wall time.Duration, states int) {
	s.WallTime = wall
	if secs := wall.Seconds(); secs > 0 {
		s.StatesPerSec = float64(states) / secs
	}
	if s.DedupLookups > 0 {
		s.DedupHitRate = float64(s.DedupHits) / float64(s.DedupLookups)
	}
}

// Merge folds another run's stats into s, for sweeps over many wirings:
// durations and counters add, peaks take the maximum, and the per-worker
// step counts add element-wise. StatesPerSec and DedupHitRate are
// recomputed from the merged totals by the next finalize; callers that
// merge by hand should use MergedRate.
func (s *Stats) Merge(o Stats) {
	s.Engine = o.Engine // a sweep runs every wiring on one engine
	if s.Symmetry == "" {
		s.Symmetry = o.Symmetry
	}
	if o.GroupSize > s.GroupSize {
		s.GroupSize = o.GroupSize
	}
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.WallTime += o.WallTime
	if o.FrontierPeak > s.FrontierPeak {
		s.FrontierPeak = o.FrontierPeak
	}
	s.DedupLookups += o.DedupLookups
	s.DedupHits += o.DedupHits
	if s.DedupLookups > 0 {
		s.DedupHitRate = float64(s.DedupHits) / float64(s.DedupLookups)
	}
	for len(s.WorkerSteps) < len(o.WorkerSteps) {
		s.WorkerSteps = append(s.WorkerSteps, 0)
	}
	for i, n := range o.WorkerSteps {
		s.WorkerSteps[i] += n
	}
	if s.StoreKind == "" {
		s.StoreKind = o.StoreKind
	}
	s.Store.Spills += o.Store.Spills
	s.Store.Compactions += o.Store.Compactions
	if o.Store.Runs > s.Store.Runs {
		s.Store.Runs = o.Store.Runs
	}
	s.Store.FrontierSpills += o.Store.FrontierSpills
	s.Store.FrontierLoads += o.Store.FrontierLoads
	s.Store.Replays += o.Store.Replays
	s.Store.ReplaySteps += o.Store.ReplaySteps
	s.Store.Checkpoints += o.Store.Checkpoints
	s.Store.DiskBytesWritten += o.Store.DiskBytesWritten
	if o.Store.DiskBytes > s.Store.DiskBytes {
		s.Store.DiskBytes = o.Store.DiskBytes
	}
}

// MergedRate returns states/sec over merged stats for the given total
// state count.
func (s Stats) MergedRate(totalStates int) float64 {
	if secs := s.WallTime.Seconds(); secs > 0 {
		return float64(totalStates) / secs
	}
	return 0
}

// String renders a compact one-line summary for command-line tools.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine=%s workers=%d wall=%v states/sec=%.0f frontier-peak=%d dedup-hit=%.1f%%",
		s.Engine, s.Workers, s.WallTime.Round(time.Millisecond), s.StatesPerSec,
		s.FrontierPeak, 100*s.DedupHitRate)
	if s.Symmetry != "" && s.Symmetry != "none" {
		fmt.Fprintf(&b, " symmetry=%s group=%d", s.Symmetry, s.GroupSize)
	}
	if s.StoreKind == "disk" {
		fmt.Fprintf(&b, " store=disk spills=%d compactions=%d replays=%d disk=%s",
			s.Store.Spills, s.Store.Compactions, s.Store.Replays,
			store.Bytes(s.Store.DiskBytesWritten))
	}
	return b.String()
}
