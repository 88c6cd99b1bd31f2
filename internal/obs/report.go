package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// Report is a run's one machine-readable record: which tool ran with
// which arguments and resolved configuration, on what, how it ended,
// tool-specific result sections and a final metrics snapshot.
// cmd/anonexplore and cmd/anonsim write it to a file with -report and
// append it to a ledger with -ledger; cmd/figures renders reports back
// with -load and turns ledgers and report files into throughput
// trajectories with -trend (see `make bench-report` for the committed
// history).
type Report struct {
	// Tool names the producing command (e.g. "anonexplore").
	Tool string `json:"tool"`
	// Args are the command-line arguments of the run.
	Args []string `json:"args,omitempty"`
	// Config is the run's resolved configuration: what was searched or
	// simulated, with every default filled in, plus the execution
	// choices that shape its throughput (workers, store tier). Runs with
	// equal Tool and Config are comparable and share a trend trajectory.
	Config any `json:"config,omitempty"`
	// Outcome is "ok", "violation", "stalled", "canceled" or "error".
	Outcome string `json:"outcome,omitempty"`
	// Time is the completion time, RFC3339 UTC. It is for humans reading
	// trajectories; nothing replays from it.
	Time string `json:"time,omitempty"`
	// Provenance names the toolchain, host and code revision. It says
	// whether two comparable runs were measured on the same host class;
	// it is not part of the comparability key.
	Provenance *Provenance `json:"provenance,omitempty"`
	// Sections hold tool-specific structured results keyed by name.
	Sections map[string]any `json:"sections,omitempty"`
	// Metrics is the registry snapshot at the end of the run.
	Metrics []MetricPoint `json:"metrics,omitempty"`
}

// Provenance is what produced a report besides its configuration.
type Provenance struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCPU"`
	// Revision is the VCS revision the binary was built from, when the
	// build recorded one (go build in a git checkout does; go run and
	// go test do not). Modified marks a build from an edited tree.
	Revision string `json:"revision,omitempty"`
	Modified bool   `json:"modified,omitempty"`
}

// CurrentProvenance describes this process's toolchain, host and build.
func CurrentProvenance() *Provenance {
	p := &Provenance{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value == "true"
			}
		}
	}
	return p
}

// NewReport starts a report for tool with the given arguments, stamped
// with the current provenance.
func NewReport(tool string, args []string) *Report {
	return &Report{Tool: tool, Args: args, Provenance: CurrentProvenance(), Sections: make(map[string]any)}
}

// Section attaches a structured result under name.
func (rep *Report) Section(name string, v any) {
	if rep.Sections == nil {
		rep.Sections = make(map[string]any)
	}
	rep.Sections[name] = v
}

// AddMetrics snapshots reg into the report (appending, so several
// registries can contribute).
func (rep *Report) AddMetrics(reg *Registry) {
	rep.Metrics = append(rep.Metrics, reg.Snapshot()...)
}

// WriteFile writes the report as indented JSON to path, atomically —
// an interrupted run leaves either the previous report or the new one,
// never a truncated file that would poison `figures -load`/`-trend`.
func (rep *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal report: %w", err)
	}
	data = append(data, '\n')
	if err := WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: write report: %w", err)
	}
	return nil
}

// ReadReportFile parses a report previously written by WriteFile.
func ReadReportFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: read report: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("obs: parse report %s: %w", path, err)
	}
	return &rep, nil
}

// DefaultLedger is the conventional ledger location, relative to the
// working directory.
const DefaultLedger = ".anonledger/runs.jsonl"

// AppendLedger appends rep as one JSON line to the ledger at path — a
// run history that is nothing but a file of reports — creating parent
// directories as needed. The whole file is rewritten through an atomic
// rename rather than opened O_APPEND, so an interrupted append can never
// leave a torn line.
func AppendLedger(path string, rep *Report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return fmt.Errorf("obs: ledger: marshal report: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("obs: ledger: %w", err)
	}
	prev, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("obs: ledger: %w", err)
	}
	if len(prev) > 0 && prev[len(prev)-1] != '\n' {
		prev = append(prev, '\n')
	}
	data := append(append(prev, line...), '\n')
	if err := WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("obs: ledger: %w", err)
	}
	return nil
}

// ReadLedger parses the ledger at path in append order. A missing file
// reads as an empty ledger, and a line that does not parse — damaged
// externally, or torn by a writer that bypassed AppendLedger — is
// skipped rather than taking the rest of the history with it.
func ReadLedger(path string) ([]*Report, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("obs: ledger: %w", err)
	}
	defer f.Close()
	var out []*Report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rep Report
		if err := json.Unmarshal(line, &rep); err != nil {
			continue
		}
		out = append(out, &rep)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("obs: ledger: scan %s: %w", path, err)
	}
	return out, nil
}
