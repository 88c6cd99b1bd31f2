// Command anonsim runs fully-anonymous shared-memory algorithms under
// configurable schedulers and wirings, printing outputs and optional
// step-by-step traces.
//
// Observability: -json replaces the prose output with one JSON object
// (same shape as the "run" section of a report file); -report FILE
// writes a JSON report with the run outcome, per-register access counts
// and the full metrics snapshot; -events FILE streams every executed
// step as JSONL; -http ADDR serves live metrics (/metrics) and pprof
// (/debug/pprof/) while the simulation runs. -trace-file FILE records
// the run as Chrome trace_event JSON (crash injections appear as
// instant events), and -ledger FILE appends the run's report as one
// JSONL line to a run history. Every report carries a "config" — the
// single run's resolved system and adversary (M, step budget, effective
// crash seed), or a campaign's sweep matrix — plus the outcome, the
// completion time and provenance (Go version, GOOS/GOARCH, GOMAXPROCS,
// NumCPU, VCS revision).
//
// Examples:
//
//	anonsim -algo snapshot -inputs a,b,c -sched random -seed 7
//	anonsim -algo snapshot -inputs a,b,c -json
//	anonsim -algo snapshot -inputs a,b -report r.json -events steps.jsonl
//	anonsim -algo writescan -inputs 1,2,3 -wiring rotation -steps 120 -trace
//	anonsim -algo consensus -inputs x,y -sched solo
//	anonsim -algo renaming -inputs g1,g1,g2 -sched coverer
//	anonsim -algo snapshot -inputs a,b,c -crashes 2 -crash-seed 3
//
// After the run, the outputs of terminated processors are validated
// against the task invariants: snapshot-family outputs (snapshot,
// doublecollect, blocking) must be self-inclusive, within the
// participating inputs and pairwise comparable; consensus decisions must
// agree and be some processor's input.
//
// Exit status (shared with anonexplore, see internal/exitcode): 0 when
// the run completed and every checked invariant held, 1 on operational
// errors, 2 on usage errors, and 3 when the run produced a
// counterexample — a one-line "invariant violated: ..." summary on
// stderr.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"anonshm/internal/anonmem"
	"anonshm/internal/baseline"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/exitcode"
	"anonshm/internal/machine"
	"anonshm/internal/obs"
	"anonshm/internal/obs/span"
	"anonshm/internal/renaming"
	"anonshm/internal/runrec"
	"anonshm/internal/sched"
	"anonshm/internal/trace"
	"anonshm/internal/view"
)

func main() {
	var (
		algo       = flag.String("algo", "snapshot", "algorithm: snapshot | writescan | doublecollect | blocking | renaming | consensus")
		inputsCSV  = flag.String("inputs", "a,b,c", "comma-separated processor inputs (equal inputs form a group)")
		registers  = flag.Int("registers", 0, "number of registers M (0 = number of processors)")
		schedName  = flag.String("sched", "random", "scheduler: rr | random | solo | coverer | exp | pareto | bursty | starver | mixed")
		wiring     = flag.String("wiring", "random", "wirings: identity | rotation | random")
		seed       = flag.Int64("seed", 1, "seed for random wirings/scheduling")
		steps      = flag.Int("steps", 0, "step budget (0 = generous default)")
		crashes    = flag.Int("crashes", 0, "crash-fault budget: the adversary crash-stops up to this many processors mid-run")
		crashSeed  = flag.Int64("crash-seed", 0, "seed for crash victims and timing (0 = derived from -seed)")
		showTrace  = flag.Bool("trace", false, "print the execution trace")
		nondet     = flag.Bool("nondet", false, "expose the algorithms' internal register choices to the scheduler")
		jsonOut    = flag.Bool("json", false, "print the run outcome as a single JSON object instead of prose")
		reportPath = flag.String("report", "", "write the run's JSON report to this file")
		eventsPath = flag.String("events", "", "stream every executed step to this file as JSONL")
		httpAddr   = flag.String("http", "", "serve live metrics (/metrics) and pprof (/debug/pprof/) on this address during the run")
		tracePath  = flag.String("trace-file", "", "write a Chrome trace_event JSON trace of the run to this file (load in Perfetto)")
		ledgerPath = flag.String("ledger", "", "append the run's report as one line to this JSONL ledger (conventionally "+obs.DefaultLedger+")")

		campaign    = flag.Bool("campaign", false, "run a Monte-Carlo campaign: sweep seeds x schedulers x N x wirings x crash budgets in parallel, validating every run")
		campAlgos   = flag.String("algos", "snapshot,renaming", "campaign: comma-separated algorithms to sweep")
		campNs      = flag.String("ns", "2,3", "campaign: comma-separated processor counts to sweep")
		campWirings = flag.String("wirings", "identity,rotation,random", "campaign: comma-separated wirings to sweep")
		campScheds  = flag.String("schedulers", strings.Join(sched.ZooNames(), ","), "campaign: comma-separated schedulers to sweep")
		campSeeds   = flag.Int("seeds", 50, "campaign: seeds per cell (run seeds are -seed, -seed+1, ...)")
		campBudgets = flag.String("crash-budgets", "auto", "campaign: comma-separated crash budgets, or auto for 0..N-1 at each N")
		campWorkers = flag.Int("workers", 0, "campaign: parallel workers (0 = GOMAXPROCS)")
	)
	flag.Parse()
	rec, err := runrec.Start("anonsim", os.Args[1:], runrec.Outputs{
		HTTP: *httpAddr, Trace: *tracePath, Events: *eventsPath,
		Report: *reportPath, Ledger: *ledgerPath,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "anonsim:", err)
		os.Exit(exitcode.Usage)
	}
	cli := options{
		algo: *algo, inputsCSV: *inputsCSV, registers: *registers,
		schedName: *schedName, wiring: *wiring, seed: *seed, steps: *steps,
		crashes: *crashes, crashSeed: *crashSeed,
		showTrace: *showTrace, nondet: *nondet, jsonOut: *jsonOut,
		trace: rec.Tracer,
	}
	var runErr error
	if *campaign {
		spec := campaignSpec{
			algos: splitCSV(*campAlgos), wirings: splitCSV(*campWirings),
			scheds: splitCSV(*campScheds), budgets: *campBudgets,
			nsCSV: *campNs, seeds: *campSeeds, workers: *campWorkers,
			baseSeed: cli.seed, registers: cli.registers, nondet: cli.nondet,
			steps: cli.steps, jsonOut: cli.jsonOut, trace: rec.Tracer,
		}
		runErr = runCampaign(spec, rec.Reg, rec.Report)
	} else {
		runErr = run(cli, rec.Reg, rec.Events, rec.Report)
	}
	os.Exit(rec.Finish(runErr))
}

type options struct {
	algo      string
	inputsCSV string
	registers int
	schedName string
	wiring    string
	seed      int64
	steps     int
	crashes   int
	crashSeed int64
	showTrace bool
	nondet    bool
	jsonOut   bool
	trace     *span.Tracer
}

// simConfig is a single run's report config: the simulated system and
// adversary with every default resolved — M, the step budget and the
// effective crash seed — so runs with equal configs replay the same
// execution.
type simConfig struct {
	Algo      string   `json:"algo"`
	Inputs    []string `json:"inputs"`
	M         int      `json:"m"`
	Sched     string   `json:"sched"`
	Wiring    string   `json:"wiring"`
	Seed      int64    `json:"seed"`
	Steps     int      `json:"steps"`
	Crashes   int      `json:"crashes"`
	CrashSeed int64    `json:"crashSeed,omitempty"`
	Nondet    bool     `json:"nondet"`
}

// config resolves the run's config from its options.
func (cli options) config() simConfig {
	inputs := strings.Split(cli.inputsCSV, ",")
	n := len(inputs)
	c := simConfig{
		Algo: cli.algo, Inputs: inputs, M: cmp.Or(cli.registers, n),
		Sched: cli.schedName, Wiring: cli.wiring, Seed: cli.seed,
		Crashes: cli.crashes, Nondet: cli.nondet,
	}
	c.Steps = stepBudget(cli.algo, cli.steps, n, c.M)
	if cli.crashes > 0 {
		// Derived, not seed+1: the old rule made -seed k's crash stream
		// the exact generator state of -seed k+1's scheduler stream,
		// correlating consecutive runs of a seed sweep.
		c.CrashSeed = cmp.Or(cli.crashSeed, sched.SplitSeed(cli.seed, sched.StreamCrash))
	}
	return c
}

// procOutcome is one processor's result, shared between -json output and
// the "run" report section.
type procOutcome struct {
	Proc    int    `json:"proc"`
	Input   string `json:"input"`
	Done    bool   `json:"done"`
	Crashed bool   `json:"crashed,omitempty"`
	Output  string `json:"output,omitempty"`
	View    string `json:"view,omitempty"`
	Steps   int64  `json:"steps"`
}

// runOutcome is the machine-readable form of a simulation run.
type runOutcome struct {
	Algorithm  string                 `json:"algorithm"`
	N          int                    `json:"n"`
	M          int                    `json:"m"`
	Scheduler  string                 `json:"scheduler"`
	Wiring     string                 `json:"wiring"`
	Seed       int64                  `json:"seed"`
	CrashSeed  int64                  `json:"crashSeed,omitempty"`
	Steps      int                    `json:"steps"`
	Crashes    int                    `json:"crashes,omitempty"`
	Stop       string                 `json:"stop"`
	AllDone    bool                   `json:"allDone"`
	Processors []procOutcome          `json:"processors"`
	Registers  []sched.RegisterAccess `json:"registers"`
}

// buildSystem wires up the memory and machines of one simulation: the
// interner, per-processor input IDs, and the system itself. rng drives
// random wirings only, so wiring choice and scheduling stay on separate
// streams.
func buildSystem(algo, wiring string, inputs []string, m int, nondet bool, rng *rand.Rand) (*machine.System, *view.Interner, []view.ID, error) {
	n := len(inputs)
	var wirings [][]int
	switch wiring {
	case "identity":
		wirings = anonmem.IdentityWirings(n, m)
	case "rotation":
		wirings = anonmem.RotationWirings(n, m)
	case "random":
		wirings = anonmem.RandomWirings(rng, n, m)
	default:
		return nil, nil, nil, fmt.Errorf("unknown wiring %q", wiring)
	}

	in := view.NewInterner()
	ids := make([]view.ID, n)
	machines := make([]machine.Machine, n)
	for i, label := range inputs {
		ids[i] = in.Intern(label)
		switch algo {
		case "snapshot":
			machines[i] = core.NewSnapshot(n, m, ids[i], nondet)
		case "writescan":
			machines[i] = core.NewWriteScan(m, ids[i], nondet)
		case "doublecollect":
			machines[i] = baseline.NewDoubleCollect(m, ids[i])
		case "blocking":
			machines[i] = baseline.NewBlocking(m, ids[i])
		case "renaming":
			machines[i] = renaming.New(n, m, ids[i], nondet)
		case "consensus":
			cm, err := consensus.New(in, n, m, label, nondet)
			if err != nil {
				return nil, nil, nil, err
			}
			machines[i] = cm
		default:
			return nil, nil, nil, fmt.Errorf("unknown algorithm %q", algo)
		}
	}
	mem, err := anonmem.New(m, core.EmptyCell, wirings)
	if err != nil {
		return nil, nil, nil, err
	}
	sys, err := machine.NewSystem(mem, machines)
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, in, ids, nil
}

// stepBudget is the default step allowance of one run.
func stepBudget(algo string, steps, n, m int) int {
	if steps != 0 {
		return steps
	}
	if algo == "writescan" {
		return 60 * n * (m + 1) // a bounded look at the infinite loop
	}
	return 200_000 * n * n
}

func run(cli options, reg *obs.Registry, sink *obs.Sink, rep *obs.Report) error {
	cfg := cli.config()
	rep.Config = cfg
	inputs, n, m := cfg.Inputs, len(cfg.Inputs), cfg.M
	if inputs[0] == "" {
		return fmt.Errorf("no inputs")
	}
	rng := rand.New(rand.NewSource(cli.seed))
	sys, in, ids, err := buildSystem(cli.algo, cli.wiring, inputs, m, cli.nondet, rng)
	if err != nil {
		return err
	}

	scheduler, err := sched.NewByName(cli.schedName, n, sched.SplitSeed(cli.seed, sched.StreamSched), cli.nondet)
	if err != nil {
		return err
	}
	if cli.crashes > 0 {
		scheduler = sched.NewCrasher(scheduler, cli.crashes, cfg.CrashSeed)
	}

	var rec *trace.Recorder
	if cli.showTrace {
		rec = &trace.Recorder{
			WordFormat: func(w anonmem.Word) string {
				if cell, ok := w.(core.Cell); ok {
					if cell.Level != 0 {
						return fmt.Sprintf("%s@%d", cell.View.Format(in), cell.Level)
					}
					return cell.View.Format(in)
				}
				return w.Key()
			},
			ViewFormat: func(sys *machine.System, p int) string {
				if v, ok := sys.Procs[p].(core.Viewer); ok {
					return v.View().Format(in)
				}
				return sys.Procs[p].StateKey()
			},
		}
	}
	inst := sched.NewInstrument(reg, sink).WithTrace(cli.trace)
	var observer sched.Observer
	if rec != nil {
		observer = sched.Observers(rec, inst)
	} else {
		observer = inst
	}
	runSpan := cli.trace.StartArgs("run", "simulate "+cli.algo,
		map[string]any{"algo": cli.algo, "sched": cli.schedName, "n": n, "m": m})
	res, err := sched.Run(sys, scheduler, cfg.Steps, observer)
	runSpan.End()
	if err != nil {
		return err
	}

	out := runOutcome{
		Algorithm: cli.algo, N: n, M: m,
		Scheduler: cli.schedName, Wiring: cli.wiring, Seed: cli.seed, CrashSeed: cfg.CrashSeed,
		Steps: res.Steps, Crashes: res.Crashes, Stop: res.Reason.String(), AllDone: true,
		Registers: inst.RegisterAccess(),
	}
	procSteps := inst.ProcSteps()
	for p, mm := range sys.Procs {
		pr := procOutcome{Proc: p, Input: inputs[p], Done: mm.Done(), Crashed: sys.Crashed(p)}
		if p < len(procSteps) {
			pr.Steps = procSteps[p]
		}
		if mm.Done() {
			switch o := mm.Output().(type) {
			case core.Cell:
				pr.Output = o.View.Format(in)
			case renaming.Name:
				pr.Output = fmt.Sprintf("name %d", int(o))
			case consensus.Decision:
				pr.Output = fmt.Sprintf("decided %q", string(o))
			default:
				pr.Output = o.Key()
			}
		} else {
			out.AllDone = false
			if v, ok := mm.(core.Viewer); ok {
				pr.View = v.View().Format(in)
			}
		}
		out.Processors = append(out.Processors, pr)
	}
	rep.Section("run", out)
	vErr := validateOutputs(cli.algo, inputs, ids, sys)

	if cli.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
		return vErr
	}

	fmt.Printf("algorithm=%s n=%d m=%d scheduler=%s wiring=%s seed=%d\n",
		out.Algorithm, out.N, out.M, out.Scheduler, out.Wiring, out.Seed)
	if out.Crashes > 0 {
		fmt.Printf("steps=%d crashes=%d stop=%s\n", out.Steps, out.Crashes, out.Stop)
	} else {
		fmt.Printf("steps=%d stop=%s\n", out.Steps, out.Stop)
	}
	for _, pr := range out.Processors {
		status := "running"
		desc := pr.Output
		switch {
		case pr.Done:
			status = "done"
		case pr.Crashed:
			status = "crashed"
		}
		if !pr.Done && pr.View != "" {
			desc = "view " + pr.View
		}
		fmt.Printf("p%d input=%-8q %-8s %s\n", pr.Proc+1, pr.Input, status, desc)
	}
	if rec != nil {
		fmt.Println()
		fmt.Print(rec.RenderFigure(trace.DescribeStep))
	}
	return vErr
}

// validateOutputs checks the outputs of terminated processors against
// the task invariants — the same conditions anonexplore verifies
// exhaustively (explore.SnapshotInvariant), applied to the single
// executed run. A violation carries the exitcode.Violation status, so a
// broken algorithm fails loudly even in simulation. Algorithms without a
// checked output invariant (writescan never terminates) pass through.
func validateOutputs(algo string, inputs []string, ids []view.ID, sys *machine.System) error {
	switch algo {
	case "snapshot", "doublecollect", "blocking":
		all := view.Empty()
		for _, id := range ids {
			all = all.With(id)
		}
		var outs []view.View
		var procs []int
		for p, mm := range sys.Procs {
			if !mm.Done() {
				continue
			}
			cell, ok := mm.Output().(core.Cell)
			if !ok {
				return exitcode.Violated("snapshot safety",
					fmt.Errorf("p%d output %v is not a view", p+1, mm.Output()))
			}
			v := cell.View
			if !v.Contains(ids[p]) {
				return exitcode.Violated("snapshot safety",
					fmt.Errorf("output of p%d misses its own input %q", p+1, inputs[p]))
			}
			if !v.SubsetOf(all) {
				return exitcode.Violated("snapshot safety",
					fmt.Errorf("output of p%d exceeds the participating inputs", p+1))
			}
			for i, q := range procs {
				if !v.ComparableWith(outs[i]) {
					return exitcode.Violated("snapshot safety",
						fmt.Errorf("outputs of p%d and p%d are incomparable", p+1, q+1))
				}
			}
			outs = append(outs, v)
			procs = append(procs, p)
		}
	case "renaming":
		// Group-renaming validity (Section 5): for G participating groups
		// the name space is 1..G(G+1)/2, distinct groups get distinct
		// names, and processors of one group may share one.
		groups := map[string]bool{}
		for _, in := range inputs {
			groups[in] = true
		}
		maxName := len(groups) * (len(groups) + 1) / 2
		taken := map[int]string{} // name -> group that holds it
		for p, mm := range sys.Procs {
			if !mm.Done() {
				continue
			}
			name, ok := mm.Output().(renaming.Name)
			if !ok {
				return exitcode.Violated("renaming validity",
					fmt.Errorf("p%d output %v is not a name", p+1, mm.Output()))
			}
			if int(name) < 1 || int(name) > maxName {
				return exitcode.Violated("renaming validity",
					fmt.Errorf("p%d took name %d outside 1..%d for %d groups", p+1, int(name), maxName, len(groups)))
			}
			if holder, clash := taken[int(name)]; clash && holder != inputs[p] {
				return exitcode.Violated("renaming uniqueness",
					fmt.Errorf("groups %q and %q share name %d", holder, inputs[p], int(name)))
			}
			taken[int(name)] = inputs[p]
		}
	case "consensus":
		decided := ""
		deciders := false
		for p, mm := range sys.Procs {
			if !mm.Done() {
				continue
			}
			d, ok := mm.Output().(consensus.Decision)
			if !ok {
				return exitcode.Violated("consensus agreement",
					fmt.Errorf("p%d output %v is not a decision", p+1, mm.Output()))
			}
			if deciders && string(d) != decided {
				return exitcode.Violated("consensus agreement",
					fmt.Errorf("p%d decided %q, another processor decided %q", p+1, string(d), decided))
			}
			decided, deciders = string(d), true
		}
		if deciders {
			valid := false
			for _, in := range inputs {
				if in == decided {
					valid = true
					break
				}
			}
			if !valid {
				return exitcode.Violated("consensus validity",
					fmt.Errorf("decided value %q is no processor's input", decided))
			}
		}
	}
	return nil
}
