package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"anonshm/internal/canon"
	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/obs/span"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Summary is the one-line result every run ends its output with.
type Summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Record is the full result of a run: the summary, its provenance and
// the per-round samples behind each median.
type Record struct {
	Provenance Provenance           `json:"provenance"`
	Summary    Summary              `json:"summary"`
	Samples    map[string][]float64 `json:"samples"`
	Errors     []string             `json:"errors,omitempty"`
}

// job is one drawn wiring, built and ready to check.
type job struct {
	w    Wiring
	sys  *machine.System
	opts explore.Options
	want Answer
}

// Setup draws a workload's wirings for seed and builds their systems and
// explorer options: the benchmark's set-up, timed as setup_s.
func Setup(wl Workload, seed uint64) ([]job, error) {
	ans, err := LoadAnswers()
	if err != nil {
		return nil, err
	}
	drawn, err := Draw(seed, wl, Pool(), ans)
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(drawn))
	for i, w := range drawn {
		sys, ids, err := NewSystem(w)
		if err != nil {
			return nil, err
		}
		opts, err := wl.Cfg.Options(ids)
		if err != nil {
			return nil, err
		}
		want, _ := ans.Lookup(wl.Name, w)
		jobs[i] = job{w: w, sys: sys, opts: opts, want: want}
	}
	return jobs, nil
}

// bench runs checks and counts them against the known answers.
type bench struct {
	scratch   string
	attempted int
	failed    int
	errors    []string
}

// maxErrors caps the failure messages a record keeps.
const maxErrors = 20

func (b *bench) fail(msg string) {
	b.failed++
	if len(b.errors) < maxErrors {
		b.errors = append(b.errors, msg)
	}
}

// round checks every job once with its options passed through wrap (nil
// = unchanged) and returns the summed check wall time, the states
// found, and each outcome. Wrong verdicts and errors count as failures.
func (b *bench) round(jobs []job, wrap func(explore.Options) explore.Options) (time.Duration, int, []Outcome) {
	var wall time.Duration
	states := 0
	outs := make([]Outcome, 0, len(jobs))
	for _, j := range jobs {
		opts := j.opts
		if wrap != nil {
			opts = wrap(opts)
		}
		b.attempted++
		out, err := Check(j.sys, opts, b.scratch)
		if err != nil {
			b.fail(fmt.Sprintf("wiring %s: %v", j.w, err))
			continue
		}
		if m := j.want.Mismatch(out.Answer(j.w)); m != "" {
			b.fail(m)
		}
		wall += out.Wall
		states += out.Res.States
		outs = append(outs, out)
	}
	return wall, states, outs
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// RunEndToEnd measures the end-to-end metrics with tracing off: after
// one untimed warm-up round (checked like the others), it repeats rounds
// over the drawn wirings until the next round would end past seconds,
// and reports medians over rounds. Each round starts from a collected
// heap and a reset RSS high-water mark, so peak_rss_mib is the median of
// per-round peaks.
func RunEndToEnd(b *bench, jobs []job, seconds time.Duration, setupS []float64) (map[string]Metric, map[string][]float64) {
	var checkS, rate, rss []float64
	b.round(jobs, nil)
	start := time.Now()
	for {
		resetPeakRSS()
		wall, states, _ := b.round(jobs, nil)
		rss = append(rss, peakRSSMiB())
		checkS = append(checkS, wall.Seconds())
		rate = append(rate, float64(states)/wall.Seconds())
		if time.Since(start)+wall > seconds {
			break
		}
	}
	m := map[string]Metric{
		"states_per_s": {median(rate), "1/s"},
		"check_s":      {median(checkS), "s"},
		"setup_s":      {median(setupS), "s"},
		"peak_rss_mib": {median(rss), "MiB"},
	}
	return m, map[string][]float64{"states_per_s": rate, "check_s": checkS, "setup_s": setupS, "peak_rss_mib": rss}
}

// resetPeakRSS returns the freed heap to the OS and resets the kernel's
// record of the process's peak resident set (VmHWM), so that the next
// peakRSSMiB reads the peak of what runs in between. Where the kernel
// refuses the reset, peaks stay process-wide.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS (VmHWM), or over its lifetime where /proc is missing.
func peakRSSMiB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
					return kib / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// layerAcc accumulates the traced run's outside-in timings of the canon
// layer and the check callbacks. The parallel engine calls them from
// several workers, hence atomics.
type layerAcc struct {
	fpNS, fpCalls       atomic.Int64
	bindNS              atomic.Int64
	invNS, invCalls     atomic.Int64
	pruneNS, pruneCalls atomic.Int64
}

// timedCanon wraps a Canonicalizer to time Bind and, through the Hasher
// it returns, every Fingerprint. It names itself like the wrapped one.
type timedCanon struct {
	inner canon.Canonicalizer
	acc   *layerAcc
}

func (c timedCanon) Bind(init *machine.System) (canon.Hasher, error) {
	t0 := time.Now()
	h, err := c.inner.Bind(init)
	c.acc.bindNS.Add(int64(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	return timedHasher{inner: h, acc: c.acc}, nil
}

func (c timedCanon) String() string { return c.inner.String() }

// timedHasher times each Fingerprint of the wrapped Hasher.
type timedHasher struct {
	inner canon.Hasher
	acc   *layerAcc
}

func (h timedHasher) Fingerprint(sys *machine.System, aux uint64) uint64 {
	t0 := time.Now()
	fp := h.inner.Fingerprint(sys, aux)
	h.acc.fpNS.Add(int64(time.Since(t0)))
	h.acc.fpCalls.Add(1)
	return fp
}

func (h timedHasher) GroupSize() int { return h.inner.GroupSize() }

// wrap returns opts with the canonicalizer, invariant and prune timed
// into a and the store phases recorded by tr.
func (a *layerAcc) wrap(opts explore.Options, tr *span.Tracer) explore.Options {
	opts.Canonicalizer = timedCanon{inner: opts.Canonicalizer, acc: a}
	if inv := opts.Invariant; inv != nil {
		opts.Invariant = func(n explore.Node) error {
			t0 := time.Now()
			err := inv(n)
			a.invNS.Add(int64(time.Since(t0)))
			a.invCalls.Add(1)
			return err
		}
	}
	if prune := opts.Prune; prune != nil {
		opts.Prune = func(n explore.Node) bool {
			t0 := time.Now()
			cut := prune(n)
			a.pruneNS.Add(int64(time.Since(t0)))
			a.pruneCalls.Add(1)
			return cut
		}
	}
	opts.Trace = tr
	return opts
}

// clockNS measures the cost of one time.Now/time.Since pair, which every
// timed call also pays. Per-call means include it (it is reported as
// trace.clock_ns); layer totals subtract it.
func clockNS() float64 {
	const n = 100_000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / n
}

// cpuSample reads the runtime's GC and busy CPU-time estimates.
func cpuSample() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// tracedTotals sums what the traced rounds' explore.Run results report.
type tracedTotals struct {
	rounds       int
	states       int64
	workerS      float64 // Σ wall × workers
	lookups      int64
	hits         int64
	frontierPeak int
	workerSteps  []int64
	groupSize    int64
	runs         int64
	spills       int64
	compactions  int64
	frSpills     int64
	replays      int64
	replaySteps  int64
	diskWritten  int64
}

func (t *tracedTotals) add(outs []Outcome) {
	t.rounds++
	for _, o := range outs {
		s := o.Res.Stats
		t.runs++
		t.states += int64(o.Res.States)
		t.workerS += o.Wall.Seconds() * float64(s.Workers)
		t.lookups += s.DedupLookups
		t.hits += s.DedupHits
		t.frontierPeak = max(t.frontierPeak, s.FrontierPeak)
		for len(t.workerSteps) < len(s.WorkerSteps) {
			t.workerSteps = append(t.workerSteps, 0)
		}
		for i, n := range s.WorkerSteps {
			t.workerSteps[i] += n
		}
		t.groupSize += int64(s.GroupSize)
		t.spills += s.Store.Spills
		t.compactions += s.Store.Compactions
		t.frSpills += s.Store.FrontierSpills
		t.replays += s.Store.Replays
		t.replaySteps += s.Store.ReplaySteps
		t.diskWritten += s.Store.DiskBytesWritten
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// RunTraced measures the per-layer metrics. It first runs the reference
// explorer over the drawn wirings, timing the machine and store calls
// it makes and checking it reaches the known states, edges and
// terminals. It then alternates untraced rounds (allocation and GC
// deltas around each Run) with traced rounds (timed canonicalizer and
// callbacks, store phase spans) until seconds is used up.
func RunTraced(b *bench, wl Workload, jobs []job, seconds time.Duration) (map[string]Metric, map[string][]float64) {
	start := time.Now()
	clock := clockNS()

	var timing RefTiming
	var ref RefStats
	for _, j := range jobs {
		b.attempted++
		st, err := RefExplore(j.sys, wl.Cfg, b.scratch, &timing)
		if err != nil {
			b.fail(fmt.Sprintf("reference explorer, wiring %s: %v", j.w, err))
			continue
		}
		if m := j.want.Mismatch(st.Answer(j.want.Verdict)); m != "" {
			b.fail("reference explorer: " + m)
		}
		ref.States += st.States
		ref.Steps += st.Steps
	}

	acc := &layerAcc{}
	tr := span.Collect()
	var tot tracedTotals
	var plainS, tracedS []float64
	var mallocs, allocBytes uint64
	var plainStates int64
	var gcCPU, busyCPU float64
	for {
		runtime.GC()
		var m0, m1 runtime.MemStats
		gc0, busy0 := cpuSample()
		var wall time.Duration
		for _, j := range jobs {
			runtime.ReadMemStats(&m0)
			w, states, _ := b.round([]job{j}, nil)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			allocBytes += m1.TotalAlloc - m0.TotalAlloc
			plainStates += int64(states)
			wall += w
		}
		gc1, busy1 := cpuSample()
		gcCPU += gc1 - gc0
		busyCPU += busy1 - busy0
		plainS = append(plainS, wall.Seconds())

		runtime.GC()
		tw, _, outs := b.round(jobs, func(o explore.Options) explore.Options { return acc.wrap(o, tr) })
		tracedS = append(tracedS, tw.Seconds())
		tot.add(outs)
		if time.Since(start)+wall+tw > seconds {
			break
		}
	}

	rounds := float64(tot.rounds)
	phases := tr.PhaseTotals()
	spillS := phases["store.spill"].Seconds()
	compactS := phases["store.compact"].Seconds()
	// Replay spans are sampled by the store; scale them to all replays.
	replayS := phases["store.replay"].Seconds() * ratio(float64(tot.replays), float64(tr.PhaseCounts()["store.replay"]))
	storeS := spillS + compactS + replayS
	ns := func(total, calls int64) float64 { return ratio(float64(total), float64(calls)) }
	// net is a timed total in seconds less the clock cost its calls paid.
	net := func(total, calls int64) float64 {
		return max(float64(total)-clock*float64(calls), 0) / 1e9
	}
	canonS := net(acc.fpNS.Load(), acc.fpCalls.Load()) + net(acc.bindNS.Load(), 0)
	invS := net(acc.invNS.Load(), acc.invCalls.Load())
	checksS := invS + net(acc.pruneNS.Load(), acc.pruneCalls.Load())
	var maxSteps, sumSteps int64
	for _, n := range tot.workerSteps {
		maxSteps = max(maxSteps, n)
		sumSteps += n
	}
	imbalance := 0.0
	if len(tot.workerSteps) > 0 {
		imbalance = ratio(float64(maxSteps), float64(sumSteps)/float64(len(tot.workerSteps)))
	}
	states := float64(tot.states)
	m := map[string]Metric{
		"explore.self_s":                {max(tot.workerS-canonS-checksS-storeS, 0) / rounds, "s"},
		"explore.allocs_per_state":      {ratio(float64(mallocs), float64(plainStates)), "allocs/state"},
		"explore.alloc_bytes_per_state": {ratio(float64(allocBytes), float64(plainStates)), "B/state"},
		"explore.gc_cpu_frac":           {ratio(gcCPU, busyCPU), "ratio"},
		"explore.dedup_hit_rate":        {ratio(float64(tot.hits), float64(tot.lookups)), "ratio"},
		"explore.dedup_lookups":         {float64(tot.lookups) / rounds, "count"},
		"explore.frontier_peak":         {float64(tot.frontierPeak), "count"},
		"explore.worker_imbalance":      {imbalance, "ratio"},

		"machine.step_ns":         {timing.Step.meanNS(), "ns"},
		"machine.clone_ns":        {timing.Clone.meanNS(), "ns"},
		"machine.steps_per_state": {ratio(float64(ref.Steps), float64(ref.States)), "steps/state"},

		"canon.fingerprint_ns":              {ns(acc.fpNS.Load(), acc.fpCalls.Load()), "ns"},
		"canon.fingerprint_calls_per_state": {ratio(float64(acc.fpCalls.Load()), states), "calls/state"},
		"canon.self_s":                      {canonS / rounds, "s"},
		"canon.share":                       {ratio(canonS, tot.workerS), "ratio"},
		"canon.bind_s":                      {float64(acc.bindNS.Load()) / 1e9 / rounds, "s"},
		"canon.group_size":                  {ratio(float64(tot.groupSize), float64(tot.runs)), "count"},

		"store.insert_ns":               {timing.Insert.meanNS(), "ns"},
		"store.frontier_push_ns":        {timing.Push.meanNS(), "ns"},
		"store.frontier_pop_ns":         {timing.Pop.meanNS(), "ns"},
		"store.spills":                  {float64(tot.spills) / rounds, "count"},
		"store.compactions":             {float64(tot.compactions) / rounds, "count"},
		"store.frontier_spills":         {float64(tot.frSpills) / rounds, "count"},
		"store.replays":                 {float64(tot.replays) / rounds, "count"},
		"store.replay_steps_per_replay": {ratio(float64(tot.replaySteps), float64(tot.replays)), "steps/replay"},
		"store.disk_write_mib":          {float64(tot.diskWritten) / (1 << 20) / rounds, "MiB"},
		"store.spill_s":                 {spillS / rounds, "s"},
		"store.compact_s":               {compactS / rounds, "s"},
		"store.replay_s":                {replayS / rounds, "s"},
		"store.share":                   {ratio(storeS, tot.workerS), "ratio"},

		"checks.invariant_ns":    {ns(acc.invNS.Load(), acc.invCalls.Load()), "ns"},
		"checks.invariant_share": {ratio(invS, tot.workerS), "ratio"},
		"checks.prune_ns":        {ns(acc.pruneNS.Load(), acc.pruneCalls.Load()), "ns"},

		"trace.overhead_frac": {ratio(median(tracedS), median(plainS)) - 1, "ratio"},
		"trace.clock_ns":      {clock, "ns"},
	}
	return m, map[string][]float64{"check_s": plainS, "traced_check_s": tracedS}
}
