// Command anonexplore exhaustively checks the paper's algorithms over
// every interleaving (and optionally every wiring), replacing the TLC
// model checker used in the paper.
//
// The search backend is selectable: -engine dfs|parallel picks the
// explorer engine (dfs by default — smallest memory footprint, with
// inline cycle detection), and -workers sets the parallel engine's
// worker count (0 = all cores; 1 = a serial breadth-first search).
//
// Symmetry reduction: -wirings all|proc0|orbits picks how the wiring
// sweep is cut down (proc0 pins processor 0's wiring to the identity;
// orbits enumerates one representative per wiring orbit), and
// -symmetry none|proc|full canonicalizes each explored state under
// processor (and, with full, register) permutations before
// fingerprinting, so a whole symmetry orbit is stored once.
//
// Crash faults: -crashes F explores every execution in which up to F
// processors crash-stop (each enabled processor may crash at each state
// until the budget is spent). Combined with -check waitfree this verifies
// wait-freedom in the crash-fault model: every survivor terminates within
// the -solo-bound solo-step budget no matter which subset of the others
// stops forever. -crashes N-1 covers every f-resilient adversary.
//
// Out-of-core exploration: -store disk bounds RAM use to -mem (e.g.
// -mem 64MiB) by spilling visited fingerprints to sorted runs and
// frontier overflow to path-replay segments under -store-dir (a temp
// directory by default). -checkpoint DIR makes safety/waitfree sweeps
// resumable: the sweep writes DIR/sweep.json after every wiring and a
// periodic per-run checkpoint (cadence -checkpoint-every states) of the
// wiring in flight; a first ^C checkpoints and stops cleanly, and
// -resume DIR continues where it left off. Resumed runs cannot keep
// counterexample traces (checkpoints do not persist parent logs), so
// -resume reruns report the violation without a trace.
//
// Observability: results go to stdout; -progress diagnostics go to
// stderr so piped output stays clean. -report FILE writes the run's
// JSON report: its "config" (the resolved search — check, inputs,
// nondet, wirings, symmetry, crashes, level, max-states, solo bound,
// engine — plus workers, store and mem), outcome, completion time,
// provenance (Go version, GOOS/GOARCH, GOMAXPROCS, NumCPU, VCS
// revision), sweep totals and final metrics including states/sec. -http
// ADDR serves live metrics (/metrics) and pprof (/debug/pprof/) while
// the search runs. cmd/figures -load renders report files back into
// tables.
//
// Tracing and run history: -trace FILE records the run as Chrome
// trace_event JSON — one span per sweep, wiring, engine run, store
// spill/compaction/replay and checkpoint write — loadable in Perfetto
// or chrome://tracing; the per-phase totals also land in the report's
// "trace" section. -events FILE streams engine lifecycle events as
// JSONL (the same stream anonsim's -events carries per step). -ledger
// FILE appends the same report as one JSONL line to a persistent
// history — conventionally .anonledger/runs.jsonl — that cmd/figures
// -trend turns into throughput trajectories, one per distinct config,
// and regression checks.
//
// Stall watchdog: -stall-after DUR arms a watchdog that fires when no
// state has been discovered for DUR; it records the stall in the
// metrics/events/trace streams and dumps goroutine and heap profiles
// next to the report (stall-goroutine.pprof, stall-heap.pprof).
// With -stall-abort the run is also aborted with exit code 5.
//
// Examples:
//
//	anonexplore -check safety   -inputs a,b       # snapshot-task outputs, all wirings
//	anonexplore -check safety   -inputs a,b -engine parallel -workers 4
//	anonexplore -check safety   -inputs a,b -report r.json
//	anonexplore -check safety   -inputs a,b,c -http :6060 -progress 1000000
//	anonexplore -check safety   -inputs a,b,c -store disk -mem 64MiB
//	anonexplore -check safety   -inputs a,b,c -checkpoint ck/   # ^C, then:
//	anonexplore -check safety   -inputs a,b,c -checkpoint ck/ -resume ck/
//	anonexplore -check waitfree -inputs a,b
//	anonexplore -check waitfree -inputs a,b,c -crashes 2 -nondet=false
//	anonexplore -check atomicity -inputs a,b      # proves atomicity at N=2
//	anonexplore -check consensus -inputs x,y -max-ts 2
//
// Exit status (shared with anonsim, see internal/exitcode): 0 when every
// checked invariant held, 1 on operational errors, 2 on usage errors,
// 3 when the search produced a counterexample — the one-line
// "invariant violated: ..." summary goes to stderr, the full trace to
// stdout — and 5 when -stall-abort killed a stalled run.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"anonshm/internal/exitcode"
	"anonshm/internal/explore"
	"anonshm/internal/obs"
	"anonshm/internal/runrec"
	"anonshm/internal/store"
)

func main() {
	os.Exit(runMain(os.Args[1:]))
}

// runMain runs one invocation and returns its exit code.
func runMain(args []string) int {
	cli, out, err := parseArgs(args)
	if errors.Is(err, flag.ErrHelp) {
		return exitcode.OK
	}
	if err != nil {
		return exitcode.Usage
	}
	rec, err := runrec.Start("anonexplore", args, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "anonexplore:", err)
		return exitcode.Usage
	}
	cli.cfg.Obs, cli.cfg.Trace, cli.cfg.Events, cli.cfg.Cancel = rec.Reg, rec.Tracer, rec.Events, interruptChannel()
	rec.Report.Config = cli.config()
	return rec.Finish(run(cli, rec.Report))
}

// options is a parsed command line: the check, its non-explorer
// parameters, and the explorer configuration the flags fill directly.
type options struct {
	check  string
	maxTS  int
	trials int
	seed   int64
	cfg    explore.SnapshotConfig
}

// parseArgs parses the command line into the run's options and the
// outputs of its record. The flag set has already printed any error.
func parseArgs(args []string) (options, runrec.Outputs, error) {
	cli := options{cfg: explore.SnapshotConfig{Wirings: explore.FilterProc0}}
	c := &cli.cfg
	var out runrec.Outputs
	var inputsCSV string
	var progress int
	fs := flag.NewFlagSet("anonexplore", flag.ContinueOnError)
	fs.StringVar(&cli.check, "check", "safety", "check: safety | waitfree | atomicity | atomicity-random | consensus")
	fs.StringVar(&inputsCSV, "inputs", "a,b", "comma-separated processor inputs")
	fs.IntVar(&c.Workers, "workers", 0, "parallel engine workers (0 = GOMAXPROCS)")
	fs.IntVar(&progress, "progress", 0, "print progress to stderr every N discovered states (0 = off)")
	fs.BoolVar(&c.Nondet, "nondet", true, "explore the algorithms' internal register choices")
	fs.IntVar(&c.Level, "level", 0, "snapshot termination level override (0 = N)")
	fs.IntVar(&c.MaxStates, "max-states", 0, "per-search state bound (0 = default)")
	fs.IntVar(&c.MaxCrashes, "crashes", 0, "crash-fault budget: explore executions with up to this many crash-stopped processors")
	fs.IntVar(&c.SoloBound, "solo-bound", 0, "solo-step budget of the waitfree invariant (0 = derived from N and M)")
	fs.IntVar(&cli.maxTS, "max-ts", 2, "consensus timestamp bound")
	fs.IntVar(&cli.trials, "trials", 100000, "trials for atomicity-random")
	fs.Int64Var(&cli.seed, "seed", 1, "seed for atomicity-random")
	fs.StringVar(&out.Report, "report", "", "write the run's JSON report to this file")
	fs.StringVar(&out.HTTP, "http", "", "serve live metrics (/metrics) and pprof (/debug/pprof/) on this address during the run")
	fs.StringVar(&c.StoreDir, "store-dir", "", "disk store scratch directory (default: a temp directory per run)")
	fs.StringVar(&c.Checkpoint, "checkpoint", "", "write periodic checkpoints to this directory; ^C stops cleanly after a final one")
	fs.IntVar(&c.CheckpointEvery, "checkpoint-every", 0, "checkpoint cadence in discovered states (0 = default)")
	fs.StringVar(&c.Resume, "resume", "", "resume a stopped sweep from this checkpoint directory")
	fs.StringVar(&out.Trace, "trace", "", "write a Chrome trace_event JSON trace of the run to this file (load in Perfetto)")
	fs.StringVar(&out.Events, "events", "", "stream engine lifecycle events to this file as JSONL")
	fs.StringVar(&out.Ledger, "ledger", "", "append the run's report as one line to this JSONL ledger (conventionally "+obs.DefaultLedger+")")
	fs.DurationVar(&c.StallAfter, "stall-after", 0, "watchdog: diagnose a stall after this long with no discovered state, dumping pprof profiles (0 = off)")
	fs.BoolVar(&c.StallAbort, "stall-abort", false, "abort a stalled run with exit code 5 (requires -stall-after)")
	fs.Var(&c.Engine, "engine", "explorer engine: dfs (default) | parallel")
	fs.Var(&c.Wirings, "wirings", "wiring sweep filter: all | proc0 | orbits")
	fs.Var(&c.Symmetry, "symmetry", "state canonicalizer: none | proc | full")
	fs.Var(&c.Store, "store", "state store tier: mem | disk")
	fs.Var(&c.MemLimit, "mem", "disk tier RAM ceiling, e.g. 64MiB, 2GiB (0 = 256MiB default)")
	if err := fs.Parse(args); err != nil {
		return cli, out, err
	}
	c.Inputs = strings.Split(inputsCSV, ",")
	// Checkpoints do not persist parent logs, so a resumed run cannot
	// keep counterexample traces.
	c.Traces = c.Resume == ""
	if out.Report != "" {
		// Stall profiles land next to the report so one artifact
		// directory carries the whole diagnosis.
		c.StallDir = filepath.Dir(out.Report)
	}
	if progress > 0 {
		c.ProgressEvery = progress
		c.Progress = progressPrinter()
	}
	return cli, out, nil
}

// runConfig is the report's config: the resolved search plus the
// execution choices that shape its throughput. Two runs with equal
// configs searched the same space the same way, so their throughputs
// belong to one trend trajectory.
type runConfig struct {
	explore.Identity
	Workers int    `json:"workers"`
	Store   string `json:"store"`
	Mem     string `json:"mem,omitempty"`
	// MaxTS is the consensus check's timestamp bound; Trials and Seed
	// drive atomicity-random.
	MaxTS  int   `json:"maxTS,omitempty"`
	Trials int   `json:"trials,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
}

// config resolves the run's config from its options.
func (cli options) config() runConfig {
	c := runConfig{
		Identity: cli.cfg.Identity(cli.check),
		Workers:  cli.cfg.Engine.Workers(cli.cfg.Workers),
		Store:    cli.cfg.Store.String(),
	}
	if cli.cfg.Store == store.Disk {
		c.Mem = cmp.Or(cli.cfg.MemLimit, store.DefaultMemLimit).String()
	}
	switch cli.check {
	case "consensus":
		c.MaxTS = cli.maxTS
	case "atomicity-random":
		c.Trials, c.Seed = cli.trials, cli.seed
	}
	return c
}

// interruptChannel maps the first SIGINT to a graceful stop (the sweeps
// checkpoint and return ErrCanceled); a second SIGINT force-quits.
func interruptChannel() <-chan struct{} {
	cancel := make(chan struct{})
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "anonexplore: interrupt — stopping at the next state (^C again to force quit)")
		close(cancel)
		<-sig
		os.Exit(exitcode.Error)
	}()
	return cancel
}

// sweepSection is the machine-readable form of a wiring sweep for
// report files.
type sweepSection struct {
	Wirings      int     `json:"wirings"`
	TotalStates  int     `json:"totalStates"`
	TotalEdges   int     `json:"totalEdges"`
	Terminals    int     `json:"terminals"`
	MaxStates    int     `json:"maxStates"`
	Truncated    bool    `json:"truncated"`
	Engine       string  `json:"engine"`
	Symmetry     string  `json:"symmetry,omitempty"`
	GroupSize    int     `json:"groupSize,omitempty"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wallSeconds"`
	StatesPerSec float64 `json:"statesPerSec"`
	FrontierPeak int     `json:"frontierPeak"`
	DedupHitRate float64 `json:"dedupHitRate"`
	// Out-of-core fields, present when the disk store was in use.
	Store          string `json:"store,omitempty"`
	Spills         int64  `json:"spills,omitempty"`
	Compactions    int64  `json:"compactions,omitempty"`
	FrontierSpills int64  `json:"frontierSpills,omitempty"`
	Replays        int64  `json:"replays,omitempty"`
	ReplaySteps    int64  `json:"replaySteps,omitempty"`
	DiskBytes      int64  `json:"diskBytes,omitempty"`
	Checkpoints    int64  `json:"checkpoints,omitempty"`
}

func sectionOf(sweep explore.SweepResult) sweepSection {
	s := sweepSection{
		Wirings:      sweep.Wirings,
		TotalStates:  sweep.TotalStates,
		TotalEdges:   sweep.TotalEdges,
		Terminals:    sweep.Terminals,
		MaxStates:    sweep.MaxStates,
		Truncated:    sweep.Truncated,
		Engine:       sweep.Stats.Engine.String(),
		Symmetry:     sweep.Stats.Symmetry,
		GroupSize:    sweep.Stats.GroupSize,
		Workers:      sweep.Stats.Workers,
		WallSeconds:  sweep.Stats.WallTime.Seconds(),
		StatesPerSec: sweep.StatesPerSec(),
		FrontierPeak: sweep.Stats.FrontierPeak,
		DedupHitRate: sweep.Stats.DedupHitRate,
		Checkpoints:  sweep.Stats.Store.Checkpoints,
	}
	if sweep.Stats.StoreKind == "disk" {
		s.Store = sweep.Stats.StoreKind
		s.Spills = sweep.Stats.Store.Spills
		s.Compactions = sweep.Stats.Store.Compactions
		s.FrontierSpills = sweep.Stats.Store.FrontierSpills
		s.Replays = sweep.Stats.Store.Replays
		s.ReplaySteps = sweep.Stats.Store.ReplaySteps
		s.DiskBytes = sweep.Stats.Store.DiskBytesWritten
	}
	return s
}

func run(cli options, rep *obs.Report) error {
	cfg := cli.cfg
	if cfg.Checkpoint != "" || cfg.Resume != "" {
		switch cli.check {
		case "safety", "waitfree":
		default:
			return fmt.Errorf("anonexplore: -checkpoint/-resume support only the safety and waitfree sweeps, not %q", cli.check)
		}
	}
	if cfg.Resume != "" {
		fmt.Fprintln(os.Stderr, "anonexplore: resuming — counterexample traces disabled for this run")
	}
	start := time.Now()
	switch cli.check {
	case "safety":
		sweep, err := explore.CheckSnapshotSafety(cfg)
		if err := sweepDone(cfg, rep, sweep, start, "snapshot safety", err); err != nil {
			return err
		}
		fmt.Println("snapshot-task safety holds over every explored interleaving")
	case "waitfree":
		sweep, err := explore.CheckSnapshotWaitFree(cfg)
		var unsupported *explore.UnsupportedOptionError
		if errors.As(err, &unsupported) {
			return err
		}
		if err := sweepDone(cfg, rep, sweep, start, "wait-freedom", err); err != nil {
			return err
		}
		if cfg.MaxCrashes > 0 {
			fmt.Printf("wait-freedom holds with a crash budget of %d: every survivor solo-terminates from every reachable state\n", cfg.MaxCrashes)
		} else {
			fmt.Println("wait-freedom holds: the reachable step graph is acyclic and every processor solo-terminates")
		}
	case "atomicity":
		r, err := explore.FindNonAtomicityWitness(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("elapsed %v\n", time.Since(start).Round(time.Millisecond))
		rep.Section("witness", map[string]any{"found": r.Found, "exhaustive": r.Exhaustive})
		if r.Found {
			fmt.Printf("NON-ATOMICITY WITNESS: processor %d outputs %v, never the memory union\n",
				r.Witness.Proc, r.Witness.Output)
			fmt.Printf("wirings: %v\n", r.Witness.Wirings)
			fmt.Printf("trace (%d steps): %s\n", len(r.Witness.Trace), explore.FormatTrace(r.Witness.Trace))
			return exitcode.Violated("snapshot atomicity",
				fmt.Errorf("processor %d outputs %v, never the memory union (trace on stdout)", r.Witness.Proc, r.Witness.Output))
		}
		if r.Exhaustive {
			fmt.Println("no witness exists: the algorithm IS an atomic memory snapshot at this size")
		} else {
			fmt.Println("no witness found within the state bound (search truncated; not a proof)")
		}
	case "atomicity-random":
		w, found, err := explore.RandomNonAtomicityWitness(cfg.Inputs, cli.trials, cli.seed)
		if err != nil {
			return err
		}
		fmt.Printf("elapsed %v\n", time.Since(start).Round(time.Millisecond))
		rep.Section("witness", map[string]any{"found": found, "trials": cli.trials, "seed": cli.seed})
		if found {
			fmt.Printf("NON-ATOMICITY WITNESS (seed %d): processor %d outputs %v\n", w.Seed, w.Proc, w.Output)
			fmt.Printf("wirings: %v\n", w.Wirings)
			return exitcode.Violated("snapshot atomicity",
				fmt.Errorf("processor %d outputs %v, never the memory union (seed %d)", w.Proc, w.Output, w.Seed))
		}
		fmt.Printf("no witness in %d random executions\n", cli.trials)
	case "consensus":
		sweep, err := explore.CheckConsensusBounded(explore.ConsensusConfig{
			Inputs:       cfg.Inputs,
			MaxTimestamp: cli.maxTS,
			Wirings:      cfg.Wirings,
			Symmetry:     cfg.Symmetry,
			MaxStates:    cfg.MaxStates,
			MaxCrashes:   cfg.MaxCrashes,
			Engine:       cfg.Engine,
			Workers:      cfg.Workers,
			Obs:          cfg.Obs,
			Events:       cfg.Events,
			Trace:        cfg.Trace,
			StallAfter:   cfg.StallAfter,
			StallAbort:   cfg.StallAbort,
			StallDir:     cfg.StallDir,
			Store:        cfg.Store,
			StoreDir:     cfg.StoreDir,
			MemLimit:     cfg.MemLimit,
			Cancel:       cfg.Cancel,
		})
		if err := sweepDone(cfg, rep, sweep, start, "consensus safety", err); err != nil {
			return err
		}
		fmt.Printf("agreement and validity hold over every state with timestamps ≤ %d\n", cli.maxTS)
	default:
		return fmt.Errorf("unknown check %q", cli.check)
	}
	return nil
}

// sweepDone prints and records a finished sweep and maps its error to
// the run's: a stall keeps exit code 5, a cancellation is operational,
// and anything else refutes the named invariant.
func sweepDone(cfg explore.SnapshotConfig, rep *obs.Report, sweep explore.SweepResult, start time.Time, invariant string, err error) error {
	report(sweep, start)
	rep.Section("sweep", sectionOf(sweep))
	switch {
	case err == nil:
		return nil
	case errors.Is(err, explore.ErrStalled):
		return exitcode.WithCode(exitcode.Stalled, err)
	case errors.Is(err, explore.ErrCanceled):
		return canceledError(cfg.Checkpoint)
	default:
		return exitcode.Violated(invariant, err)
	}
}

// canceledError renders a cancellation (first SIGINT) as an operational
// error, not a violation: the run was cut short, nothing was refuted.
// %.0w wraps ErrCanceled without repeating its message, so the run
// record can still classify the outcome with errors.Is.
func canceledError(checkpoint string) error {
	if checkpoint != "" {
		return fmt.Errorf("run canceled; checkpoint saved under %s — rerun with -resume %s to continue%.0w", checkpoint, checkpoint, explore.ErrCanceled)
	}
	return fmt.Errorf("run canceled (no -checkpoint dir; progress was not saved)%.0w", explore.ErrCanceled)
}

// progressPrinter returns the -progress callback. It writes to stderr —
// never stdout — so results and reports survive piping; the live
// explore_live_states/explore_live_edges gauges carry the same numbers
// to the -http endpoint.
func progressPrinter() func(states, edges int) {
	return func(states, edges int) {
		fmt.Fprintf(os.Stderr, "... %d states, %d edges\n", states, edges)
	}
}

func report(sweep explore.SweepResult, start time.Time) {
	fmt.Printf("wirings=%d states=%d edges=%d terminals=%d largest=%d truncated=%v elapsed=%v\n",
		sweep.Wirings, sweep.TotalStates, sweep.TotalEdges, sweep.Terminals,
		sweep.MaxStates, sweep.Truncated, time.Since(start).Round(time.Millisecond))
	fmt.Printf("engine=%s workers=%d states/sec=%.0f frontier-peak=%d dedup-hit=%.1f%%",
		sweep.Stats.Engine, sweep.Stats.Workers, sweep.StatesPerSec(),
		sweep.Stats.FrontierPeak, 100*sweep.Stats.DedupHitRate)
	if sweep.Stats.Symmetry != "" && sweep.Stats.Symmetry != "none" {
		fmt.Printf(" symmetry=%s group=%d", sweep.Stats.Symmetry, sweep.Stats.GroupSize)
	}
	if sweep.Stats.StoreKind == "disk" {
		st := sweep.Stats.Store
		fmt.Printf(" store=disk spills=%d compactions=%d replays=%d disk=%s",
			st.Spills, st.Compactions, st.Replays, store.Bytes(st.DiskBytesWritten))
	}
	if sweep.Stats.Store.Checkpoints > 0 {
		fmt.Printf(" checkpoints=%d", sweep.Stats.Store.Checkpoints)
	}
	fmt.Println()
}
