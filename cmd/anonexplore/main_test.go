package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"anonshm/internal/exitcode"
	"anonshm/internal/obs"
)

func configOf(t *testing.T, args ...string) runConfig {
	t.Helper()
	cli, _, err := parseArgs(args)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return cli.config()
}

// TestConfigResolvesDefaults: flags that spell out a default, or that
// the chosen engine ignores, name the same search as the bare command,
// so their runs share one config (and one trend trajectory).
func TestConfigResolvesDefaults(t *testing.T) {
	base := []string{"-check", "safety", "-inputs", "a,b"}
	want := configOf(t, base...)
	for _, extra := range [][]string{
		{"-engine", "dfs"},
		{"-symmetry", "none"},
		{"-workers", "3"}, // the DFS engine runs one worker whatever is asked
		{"-report", "r.json", "-ledger", "runs.jsonl", "-progress", "1000"},
	} {
		if got := configOf(t, append(base, extra...)...); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: config %+v, want %+v", extra, got, want)
		}
	}
	if want.Level != 2 || want.MaxStates == 0 || want.Workers != 1 {
		t.Errorf("config left defaults unresolved: %+v", want)
	}
}

// TestConfigDistinguishesSearches: flags that change the search, its
// bound or its engine yield a different config.
func TestConfigDistinguishesSearches(t *testing.T) {
	base := []string{"-check", "safety", "-inputs", "a,b"}
	ref := configOf(t, base...)
	for _, extra := range [][]string{
		{"-wirings", "orbits"},
		{"-max-states", "100"},
		{"-engine", "parallel"},
		{"-store", "disk"},
	} {
		if got := configOf(t, append(base, extra...)...); reflect.DeepEqual(got, ref) {
			t.Errorf("%v: config equals the default run's: %+v", extra, got)
		}
	}
}

// TestLedgerLineIsReport: a run's ledger line and its report file are
// the same record.
func TestLedgerLineIsReport(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "r.json")
	ledgerPath := filepath.Join(dir, "l.jsonl")
	code := runMain([]string{"-check", "safety", "-inputs", "a,b", "-symmetry", "full",
		"-report", reportPath, "-ledger", ledgerPath})
	if code != exitcode.OK {
		t.Fatalf("exit code %d", code)
	}
	rep, err := obs.ReadReportFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	lines, err := obs.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("ledger holds %d lines, want 1", len(lines))
	}
	if !reflect.DeepEqual(lines[0], rep) {
		t.Errorf("ledger line %+v\ndiffers from report %+v", lines[0], rep)
	}
	if rep.Outcome != "ok" || rep.Time == "" || rep.Config == nil || rep.Provenance == nil {
		t.Errorf("report lacks its record fields: outcome %q, time %q, config %v, provenance %v",
			rep.Outcome, rep.Time, rep.Config, rep.Provenance)
	}
}
