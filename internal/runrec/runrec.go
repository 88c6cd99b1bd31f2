// Package runrec is the run record the anonshm binaries (anonexplore,
// anonsim) share: Start opens a run's observability outputs — the -http
// endpoint, the -trace file and the -events stream — around one
// obs.Report, and Finish closes them, classifies how the run ended,
// appends the report to the -ledger, writes it to -report and returns
// the process exit code. A ledger line and the report file of one run
// are therefore the same record.
package runrec

import (
	"errors"
	"fmt"
	"os"
	"time"

	"anonshm/internal/exitcode"
	"anonshm/internal/explore"
	"anonshm/internal/obs"
	"anonshm/internal/obs/span"
)

// Outputs are the paths and address a run's record goes to; an empty
// field is off.
type Outputs struct {
	HTTP   string // serve live metrics and pprof on this address
	Trace  string // Chrome trace_event JSON file
	Events string // JSONL event stream
	Report string // report file
	Ledger string // JSONL ledger the report is appended to
}

// Run is one invocation's record in progress. The binary sets
// Report.Config, publishes into Reg, Tracer and Events (nil when off)
// and attaches its result sections to Report.
type Run struct {
	Reg    *obs.Registry
	Report *obs.Report
	Tracer *span.Tracer
	Events *obs.Sink

	tool       string
	out        Outputs
	traceFile  *os.File
	eventsFile *os.File
}

// Start begins the record of tool run with args. Its error — an address
// or a file that cannot be opened — is a usage error.
func Start(tool string, args []string, out Outputs) (*Run, error) {
	r := &Run{Reg: obs.New(), Report: obs.NewReport(tool, args), tool: tool, out: out}
	if out.HTTP != "" {
		addr, err := obs.Serve(out.HTTP, r.Reg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", tool, addr)
	}
	if out.Trace != "" {
		f, err := os.Create(out.Trace)
		if err != nil {
			return nil, err
		}
		r.traceFile, r.Tracer = f, span.New(f)
	}
	if out.Events != "" {
		f, err := os.Create(out.Events)
		if err != nil {
			if r.traceFile != nil {
				r.traceFile.Close()
			}
			return nil, err
		}
		r.eventsFile, r.Events = f, obs.NewSink(f)
	}
	return r, nil
}

// Finish ends the record with the run's error and returns the exit
// code. It closes the trace and events files (a failure there becomes
// the run's error when it had none), stamps the report's outcome, time,
// error and final metrics, appends it to the ledger, writes the report
// file, and prints the one-line error summary.
func (r *Run) Finish(runErr error) int {
	keep := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	if r.Tracer != nil {
		r.Report.Section("trace", map[string]any{"file": r.out.Trace, "phases": r.Tracer.PhaseSeconds()})
		if err := r.Tracer.Close(); err != nil {
			fmt.Fprintln(os.Stderr, r.tool+":", err)
			keep(err)
		} else {
			fmt.Fprintf(os.Stderr, "%s: wrote trace to %s\n", r.tool, r.out.Trace)
		}
		keep(r.traceFile.Close())
	}
	if r.Events != nil {
		keep(r.Events.Err())
		keep(r.eventsFile.Close())
	}
	rep := r.Report
	rep.Outcome = outcome(runErr)
	rep.Time = time.Now().UTC().Format(time.RFC3339)
	if runErr != nil {
		rep.Section("error", runErr.Error())
	}
	rep.AddMetrics(r.Reg)
	if r.out.Ledger != "" {
		if err := obs.AppendLedger(r.out.Ledger, rep); err != nil {
			fmt.Fprintln(os.Stderr, r.tool+":", err)
			keep(err)
		}
	}
	if r.out.Report != "" {
		if err := rep.WriteFile(r.out.Report); err != nil {
			fmt.Fprintln(os.Stderr, r.tool+":", err)
			return exitcode.Error
		}
		fmt.Fprintf(os.Stderr, "%s: wrote report to %s\n", r.tool, r.out.Report)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, r.tool+":", exitcode.Summary(runErr))
		return exitcode.Code(runErr)
	}
	return exitcode.OK
}

// outcome classifies how a run ended, for Report.Outcome.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, explore.ErrStalled):
		return "stalled"
	case errors.Is(err, explore.ErrCanceled):
		return "canceled"
	case exitcode.Code(err) == exitcode.Violation:
		return "violation"
	default:
		return "error"
	}
}
