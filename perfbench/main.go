// Command perfbench is the repository's benchmark: seeded exhaustive
// Figure 3 checks at N=3 through the explorer's public API, with every
// verdict checked against known answers. See README.md for the
// workloads, the metrics and how to run each mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// scratchRoot holds each run's temporary files, such as the disk tier's
// spill files, inside the checkout.
const scratchRoot = ".bench_build"

// setupRepeats is how many times a run repeats its set-up, each time
// from a collected heap; setup_s is the median.
const setupRepeats = 101

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: snap3-sym, snap3-disk or wait3-crash")
	seed := flag.Uint64("seed", 1, "seed of the wiring draw")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, untraced; 1 = per-layer metrics from a traced run")
	out := flag.String("out", "", "also append the full result record, one JSON line, to this file")
	compare := flag.Bool("compare", false, "compare two result files: --compare BASE.jsonl CHANGE.jsonl")
	answers := flag.String("answers", "", "regenerate the known-answer table into this file and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare wants two result files")
			return 2
		}
		if err := Compare(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchRoot, "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	if *answers != "" {
		logf := func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
		if err := GenerateAnswers(*answers, scratch, logf); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	wl, err := LookupWorkload(*workload)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	rec, err := measure(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *out != "" {
		if err := appendLine(*out, line); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	summary, err := json.Marshal(rec.Summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", line, summary)
	return 0
}

// measure runs one workload for one seed and returns its record.
func measure(wl Workload, seed uint64, seconds time.Duration, trace bool, scratch string) (Record, error) {
	setupS := make([]float64, 0, setupRepeats)
	var jobs []job
	for range setupRepeats {
		runtime.GC()
		t0 := time.Now()
		j, err := Setup(wl, seed)
		if err != nil {
			return Record{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		jobs = j
	}
	root, err := filepath.Abs(".")
	if err != nil {
		return Record{}, err
	}
	prov := Provenance{
		Commit:       commit(),
		SourceSHA256: sourceDigest(root),
		GoVersion:    runtime.Version(),
		Host:         CurrentHost(),
		Workload:     wl.Name,
		Seed:         seed,
		Seconds:      int(seconds / time.Second),
		Trace:        trace,
		Config:       wl.Cfg,
	}
	for _, j := range jobs {
		prov.Wirings = append(prov.Wirings, j.w.String())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d, wirings %v\n", wl.Name, seed, prov.Wirings)

	b := &bench{scratch: scratch}
	var metrics map[string]Metric
	var samples map[string][]float64
	if trace {
		metrics, samples = RunTraced(b, wl, jobs, seconds)
	} else {
		metrics, samples = RunEndToEnd(b, jobs, seconds, setupS)
	}
	return Record{
		Provenance: prov,
		Summary:    Summary{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics},
		Samples:    samples,
		Errors:     b.errors,
	}, nil
}

// appendLine appends one line to the file at path.
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
