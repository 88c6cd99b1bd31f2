package main

// campaign.go is the Monte-Carlo campaign runner (-campaign): the
// statistical counterpart of anonexplore's exhaustive sweeps. It crosses
// algorithms x processor counts x wirings x schedulers x crash budgets x
// seeds into a job matrix, runs the jobs on a worker pool, validates
// every run's outputs post-run with the same validateOutputs the single-
// run mode uses (plus wait-freedom: a run that exhausts its step budget
// under a crash budget < N is a termination violation), and aggregates
// step-count distributions per (algorithm, scheduler) cell through
// internal/obs histograms into a "campaign" report section that
// cmd/figures renders as a table. Any violating run fails the whole
// campaign with exitcode.Violation (exit 3).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"anonshm/internal/exitcode"
	"anonshm/internal/obs"
	"anonshm/internal/obs/span"
	"anonshm/internal/sched"
	"anonshm/internal/trace"
)

// campaignSpec is the parsed sweep matrix.
type campaignSpec struct {
	algos, wirings, scheds []string
	nsCSV                  string // processor counts, CSV
	budgets                string // crash budgets, CSV or "auto" (0..N-1)
	seeds                  int    // runs per cell; run seeds are baseSeed..baseSeed+seeds-1
	workers                int    // 0 = GOMAXPROCS
	baseSeed               int64
	registers              int // M override (0 = N)
	nondet                 bool
	steps                  int // step-budget override (0 = default)
	jsonOut                bool
	trace                  *span.Tracer
}

// campaignConfig is a campaign's report config: the sweep matrix (each
// job resolves its own M, step budget and crash seed from it, as a
// single run does) and the resolved worker count.
type campaignConfig struct {
	Algos        []string `json:"algos"`
	Ns           string   `json:"ns"`
	Wirings      []string `json:"wirings"`
	Schedulers   []string `json:"schedulers"`
	CrashBudgets string   `json:"crashBudgets"`
	Seeds        int      `json:"seeds"`
	Seed         int64    `json:"seed"`
	Registers    int      `json:"registers"`
	Steps        int      `json:"steps"`
	Nondet       bool     `json:"nondet"`
	Workers      int      `json:"workers"`
}

// campaignJob is one cell x seed of the matrix.
type campaignJob struct {
	algo, wiring, sch string
	n, m, budget      int
	seed              int64
}

// desc renders the job for violation messages, reproducible as a
// single-run invocation.
func (j campaignJob) desc() string {
	return fmt.Sprintf("algo=%s n=%d m=%d wiring=%s sched=%s crashes=%d seed=%d",
		j.algo, j.n, j.m, j.wiring, j.sch, j.budget, j.seed)
}

// campaignCell aggregates the runs of one (algorithm, scheduler) pair.
type campaignCell struct {
	Algo       string  `json:"algo"`
	Sched      string  `json:"sched"`
	Runs       int     `json:"runs"`
	Violations int     `json:"violations,omitempty"`
	Errors     int     `json:"errors,omitempty"`
	Crashes    int64   `json:"crashes"`
	StepsMean  float64 `json:"stepsMean"`
	StepsP50   float64 `json:"stepsP50"`
	StepsP90   float64 `json:"stepsP90"`
	StepsMax   int64   `json:"stepsMax"`
}

// campaignOutcome is the machine-readable campaign summary: the "campaign"
// report section and the -json output.
type campaignOutcome struct {
	Jobs       int            `json:"jobs"`
	Runs       int            `json:"runs"`
	Violations int            `json:"violations"`
	Errors     int            `json:"errors"`
	Workers    int            `json:"workers"`
	TotalSteps int64          `json:"totalSteps"`
	Cells      []campaignCell `json:"cells"`
	// FirstViolations lists up to maxViolationSamples violating runs with
	// their reproduction parameters.
	FirstViolations []string `json:"firstViolations,omitempty"`
}

// maxViolationSamples bounds how many violating runs the summary quotes;
// the count still reflects all of them.
const maxViolationSamples = 5

// cellAgg is the mutable per-cell aggregate behind a campaignCell.
type cellAgg struct {
	runs, violations, errors int
	crashes, maxSteps, sum   int64
	hist                     *obs.Histogram
}

// campaignBuckets spans single-digit runs to the millions-of-steps
// regime of large-N budgets in quarter-decade resolution, so P50/P90
// estimates stay within ~1.8x of the true value everywhere.
func campaignBuckets() []float64 {
	return obs.ExpBuckets(4, 1.778, 24) // 4 .. ~4e6
}

// splitCSV splits a comma-separated flag, dropping empty fields.
func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseInts parses a CSV of non-negative ints.
func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range splitCSV(csv) {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// jobs expands the spec into the full job matrix, in deterministic
// order. Crash budgets larger than n-1 are clamped out (crashing all
// processors makes termination vacuous), and duplicate budgets per n are
// collapsed.
func (spec campaignSpec) jobs() ([]campaignJob, error) {
	ns, err := parseInts(spec.nsCSV)
	if err != nil || len(ns) == 0 {
		return nil, fmt.Errorf("campaign: -ns %q: need comma-separated processor counts", spec.nsCSV)
	}
	if len(spec.algos) == 0 || len(spec.scheds) == 0 || len(spec.wirings) == 0 {
		return nil, fmt.Errorf("campaign: -algos, -schedulers and -wirings must be non-empty")
	}
	if spec.seeds < 1 {
		return nil, fmt.Errorf("campaign: -seeds %d: need at least one seed", spec.seeds)
	}
	budgetsFor := func(n int) ([]int, error) {
		if spec.budgets == "auto" {
			out := make([]int, n)
			for i := range out {
				out[i] = i
			}
			return out, nil
		}
		all, err := parseInts(spec.budgets)
		if err != nil || len(all) == 0 {
			return nil, fmt.Errorf("campaign: -crash-budgets %q: need auto or comma-separated budgets", spec.budgets)
		}
		var out []int
		seen := map[int]bool{}
		for _, b := range all {
			if b >= n {
				b = n - 1 // keep at least one survivor
			}
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
		return out, nil
	}
	var jobs []campaignJob
	for _, algo := range spec.algos {
		for _, n := range ns {
			if n < 1 {
				return nil, fmt.Errorf("campaign: -ns includes %d", n)
			}
			m := spec.registers
			if m == 0 {
				m = n
			}
			budgets, err := budgetsFor(n)
			if err != nil {
				return nil, err
			}
			for _, wiring := range spec.wirings {
				for _, sch := range spec.scheds {
					for _, budget := range budgets {
						for s := 0; s < spec.seeds; s++ {
							jobs = append(jobs, campaignJob{
								algo: algo, wiring: wiring, sch: sch,
								n: n, m: m, budget: budget,
								seed: spec.baseSeed + int64(s),
							})
						}
					}
				}
			}
		}
	}
	return jobs, nil
}

// campaignInputs names n distinct groups g1..gn: the hardest renaming
// instance (every group participates) and the fullest snapshot.
func campaignInputs(n int) []string {
	inputs := make([]string, n)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("g%d", i+1)
	}
	return inputs
}

// runJob executes one job and returns its result. Scheduler and crash
// streams are split off the job seed (sched.SplitSeed), the wiring rng
// runs on the raw seed as in single-run mode, so a violating job
// reproduces exactly under the equivalent single-run flags.
func runJob(job campaignJob, nondet bool, stepsOverride int) (steps, crashes int, err error) {
	inputs := campaignInputs(job.n)
	rng := rand.New(rand.NewSource(job.seed))
	sys, _, ids, err := buildSystem(job.algo, job.wiring, inputs, job.m, nondet, rng)
	if err != nil {
		return 0, 0, err
	}
	s, err := sched.NewByName(job.sch, job.n, sched.SplitSeed(job.seed, sched.StreamSched), nondet)
	if err != nil {
		return 0, 0, err
	}
	if job.budget > 0 {
		s = sched.NewCrasher(s, job.budget, sched.SplitSeed(job.seed, sched.StreamCrash))
	}
	budget := stepBudget(job.algo, stepsOverride, job.n, job.m)
	res, err := sched.Run(sys, s, budget, nil)
	if err != nil {
		return 0, 0, err
	}
	if res.Reason == sched.StopMaxSteps {
		// With at most budget < N crashes, wait-freedom promises every
		// surviving processor terminates: budget exhaustion is a
		// violation, not a statistic.
		return res.Steps, res.Crashes, exitcode.Violated("wait-freedom",
			fmt.Errorf("run did not terminate within %d steps", budget))
	}
	return res.Steps, res.Crashes, validateOutputs(job.algo, inputs, ids, sys)
}

// runCampaign executes the sweep on a worker pool and writes the
// aggregated outcome into rep ("campaign" section). It returns an
// exitcode.Violation error when any run violated its task invariants or
// wait-freedom, so the campaign exits 3 exactly like a single violating
// run.
func runCampaign(spec campaignSpec, reg *obs.Registry, rep *obs.Report) error {
	jobs, err := spec.jobs()
	if err != nil {
		return err
	}
	workers := spec.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	rep.Config = campaignConfig{
		Algos: spec.algos, Ns: spec.nsCSV, Wirings: spec.wirings, Schedulers: spec.scheds,
		CrashBudgets: spec.budgets, Seeds: spec.seeds, Seed: spec.baseSeed,
		Registers: spec.registers, Steps: spec.steps, Nondet: spec.nondet, Workers: workers,
	}

	sweepSpan := spec.trace.StartArgs("campaign", "campaign sweep", map[string]any{
		"jobs": len(jobs), "workers": workers, "algos": spec.algos, "schedulers": spec.scheds,
	})
	var (
		mu         sync.Mutex
		cells      = map[string]*cellAgg{}
		order      []string
		out        = campaignOutcome{Jobs: len(jobs), Workers: workers}
		violations []string
	)
	cellFor := func(job campaignJob) *cellAgg {
		key := job.algo + "\x00" + job.sch
		c := cells[key]
		if c == nil {
			c = &cellAgg{hist: reg.Histogram("campaign_steps", campaignBuckets(),
				obs.L("algo", job.algo), obs.L("sched", job.sch))}
			cells[key] = c
			order = append(order, key)
		}
		return c
	}
	ch := make(chan campaignJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for job := range ch {
				jobSpan := spec.trace.StartTID(tid+1, "campaign.run", job.desc())
				steps, crashes, err := runJob(job, spec.nondet, spec.steps)
				jobSpan.End()
				mu.Lock()
				c := cellFor(job)
				c.runs++
				c.crashes += int64(crashes)
				c.sum += int64(steps)
				if int64(steps) > c.maxSteps {
					c.maxSteps = int64(steps)
				}
				out.Runs++
				out.TotalSteps += int64(steps)
				switch {
				case err == nil:
				case exitcode.Code(err) == exitcode.Violation:
					c.violations++
					out.Violations++
					if len(violations) < maxViolationSamples {
						violations = append(violations, fmt.Sprintf("%s: %s", job.desc(), exitcode.Summary(err)))
					}
				default:
					c.errors++
					out.Errors++
					if len(violations) < maxViolationSamples {
						violations = append(violations, fmt.Sprintf("%s: error: %v", job.desc(), err))
					}
				}
				mu.Unlock()
				c.hist.Observe(float64(steps)) // atomic, outside the lock
			}
		}(w)
	}
	for _, job := range jobs {
		ch <- job
	}
	close(ch)
	wg.Wait()
	sweepSpan.End()

	for _, key := range order {
		c := cells[key]
		algo, sch, _ := strings.Cut(key, "\x00")
		cell := campaignCell{
			Algo: algo, Sched: sch,
			Runs: c.runs, Violations: c.violations, Errors: c.errors,
			Crashes: c.crashes, StepsMax: c.maxSteps,
			StepsP50: c.hist.Quantile(0.5), StepsP90: c.hist.Quantile(0.9),
		}
		if c.runs > 0 {
			cell.StepsMean = float64(c.sum) / float64(c.runs)
		}
		out.Cells = append(out.Cells, cell)
	}
	out.FirstViolations = violations
	rep.Section("campaign", out)

	if spec.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Printf("campaign: %d runs across %d jobs on %d workers (%d steps total)\n",
			out.Runs, out.Jobs, out.Workers, out.TotalSteps)
		fmt.Print(campaignTable(out.Cells))
		for _, v := range out.FirstViolations {
			fmt.Printf("violation: %s\n", v)
		}
	}
	if out.Violations > 0 {
		return exitcode.Violated("campaign",
			fmt.Errorf("%d of %d runs violated task invariants (first: %s)",
				out.Violations, out.Runs, violations[0]))
	}
	if out.Errors > 0 {
		return fmt.Errorf("campaign: %d of %d runs failed operationally (first: %s)",
			out.Errors, out.Runs, violations[0])
	}
	return nil
}

// campaignTable renders the per-cell aggregates as a prose table; the
// same layout cmd/figures reproduces from the report file.
func campaignTable(cells []campaignCell) string {
	rows := make([][]string, 0, len(cells))
	for _, c := range cells {
		rows = append(rows, []string{
			c.Algo, c.Sched, strconv.Itoa(c.Runs), strconv.Itoa(c.Violations),
			strconv.FormatInt(c.Crashes, 10),
			fmt.Sprintf("%.1f", c.StepsMean),
			fmt.Sprintf("%.0f", c.StepsP50), fmt.Sprintf("%.0f", c.StepsP90),
			strconv.FormatInt(c.StepsMax, 10),
		})
	}
	return trace.Table([]string{"algo", "sched", "runs", "viol", "crashes", "mean", "p50", "p90", "max"}, rows)
}
