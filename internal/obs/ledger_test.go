package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// ledgerReport is a decoded-form report, as a ledger line reads back.
func ledgerReport(states float64) *Report {
	return &Report{
		Tool:    "anonexplore",
		Config:  map[string]any{"check": "safety", "engine": "dfs", "symmetry": "full"},
		Outcome: "ok",
		Sections: map[string]any{
			"sweep": map[string]any{"totalStates": states, "statesPerSec": 500.0},
			"trace": map[string]any{"phases": map[string]any{"sweep": 1.9, "wiring": 1.7}},
		},
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "runs.jsonl")
	want := []*Report{ledgerReport(1000), ledgerReport(1100)}
	want[0].Time = "2026-01-02T03:04:05Z"
	for _, rep := range want {
		if err := AppendLedger(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read back %+v, want %+v", got, want)
	}
}

func TestReadMissingFileIsEmpty(t *testing.T) {
	got, err := ReadLedger(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || got != nil {
		t.Fatalf("missing ledger: reports=%v err=%v", got, err)
	}
}

// TestReadSkipsTornLine: a damaged or half-written line must not take
// the rest of the history with it, and appending after the damage keeps
// the parseable history.
func TestReadSkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	content := `{"tool":"anonexplore","outcome":"ok"}
{"tool":"anonexplore","conf
{"tool":"anonsim","outcome":"violation"}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Outcome != "ok" || got[1].Tool != "anonsim" {
		t.Fatalf("torn read = %+v", got)
	}
	if err := AppendLedger(path, &Report{Tool: "anonexplore", Outcome: "canceled"}); err != nil {
		t.Fatal(err)
	}
	got, err = ReadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].Outcome != "canceled" {
		t.Fatalf("append after damage = %+v", got)
	}
}
