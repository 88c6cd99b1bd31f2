package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"anonshm/internal/explore"
)

// Answer is the reference outcome of one wiring under one workload's
// configuration.
type Answer struct {
	Wiring    string `json:"wiring"`
	Verdict   string `json:"verdict"`
	States    int    `json:"states"`
	Edges     int    `json:"edges"`
	Terminals int    `json:"terminals"`
	// GroupSize is the size of the symmetry group the configuration's
	// canonicalizer binds for the wiring (1 without symmetry).
	GroupSize int `json:"group_size"`
}

// WorkloadAnswers holds one workload's configuration and its answers for
// every pooled wiring.
type WorkloadAnswers struct {
	Name    string   `json:"name"`
	Config  Config   `json:"config"`
	Answers []Answer `json:"answers"`
}

// Answers is the known-answer table, answers.json.
type Answers struct {
	// Note records how the table was produced.
	Note      string            `json:"note"`
	Workloads []WorkloadAnswers `json:"workloads"`
}

//go:embed answers.json
var answersJSON []byte

// LoadAnswers parses the embedded known-answer table.
func LoadAnswers() (Answers, error) {
	var a Answers
	if err := json.Unmarshal(answersJSON, &a); err != nil {
		return a, fmt.Errorf("answers.json: %w", err)
	}
	return a, nil
}

// Lookup returns the known answer of wiring w under workload name.
func (a Answers) Lookup(name string, w Wiring) (Answer, bool) {
	key := w.String()
	for _, wa := range a.Workloads {
		if wa.Name != name {
			continue
		}
		for _, ans := range wa.Answers {
			if ans.Wiring == key {
				return ans, true
			}
		}
	}
	return Answer{}, false
}

// Verdict classifies a run's outcome: "ok", "violated" (an invariant
// failed) or "cycle" (DFS found a back edge).
func Verdict(res explore.Result, err error) (string, error) {
	var inv *explore.InvariantError
	switch {
	case errors.As(err, &inv):
		return "violated", nil
	case err != nil:
		return "", err
	case res.Truncated:
		return "", fmt.Errorf("search truncated at %d states", res.States)
	case res.Cycle:
		return "cycle", nil
	default:
		return "ok", nil
	}
}

// Mismatch describes how got differs from the known answer a in verdict,
// states, edges or terminals, or returns "" when it matches.
func (a Answer) Mismatch(got Answer) string {
	if got.Verdict == a.Verdict && got.States == a.States && got.Edges == a.Edges && got.Terminals == a.Terminals {
		return ""
	}
	return fmt.Sprintf("wiring %s: got verdict=%s states=%d edges=%d terminals=%d, want verdict=%s states=%d edges=%d terminals=%d",
		a.Wiring, got.Verdict, got.States, got.Edges, got.Terminals, a.Verdict, a.States, a.Edges, a.Terminals)
}

// GenerateAnswers checks every pooled wiring under every workload's
// configuration with DFSEngine and ParallelEngine on the mem tier, with
// the workload's own configuration, and with the reference explorer on
// the workload's store tier, and keeps an answer only where all of them
// agree. It writes the table to path.
func GenerateAnswers(path, scratch string, log func(string, ...any)) error {
	pool := Pool()
	out := Answers{Note: "Reference verdict, states, edges and terminals per pooled wiring; " +
		"each agreed on by DFSEngine, ParallelEngine, the workload's own configuration and the harness's reference explorer. " +
		"Regenerate with: go run . --answers answers.json"}
	for _, wl := range Workloads {
		wa := WorkloadAnswers{Name: wl.Name, Config: wl.Cfg}
		for _, w := range pool {
			ans, err := agreedAnswer(wl.Cfg, w, scratch)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			log("%s %s verdict=%s states=%d edges=%d terminals=%d", wl.Name, w, ans.Verdict, ans.States, ans.Edges, ans.Terminals)
			wa.Answers = append(wa.Answers, ans)
		}
		out.Workloads = append(out.Workloads, wa)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// agreedAnswer runs one wiring under every cross-checking configuration
// and returns the common answer, or an error naming the disagreement.
func agreedAnswer(cfg Config, w Wiring, scratch string) (Answer, error) {
	sys, ids, err := NewSystem(w)
	if err != nil {
		return Answer{}, err
	}
	dfs, par := cfg, cfg
	dfs.Engine, dfs.Workers, dfs.Store, dfs.MemLimit = "dfs", 1, "mem", ""
	par.Engine, par.Store, par.MemLimit = "parallel", "mem", ""
	par.Workers = max(par.Workers, 2)
	var got []Answer
	for _, c := range []Config{cfg, dfs, par} {
		opts, err := c.Options(ids)
		if err != nil {
			return Answer{}, err
		}
		out, err := Check(sys, opts, scratch)
		if err != nil {
			return Answer{}, fmt.Errorf("wiring %s, engine %s/%s: %w", w, c.Engine, c.Store, err)
		}
		got = append(got, out.Answer(w))
	}
	ref, err := RefExplore(sys, cfg, scratch, nil)
	if err != nil {
		return Answer{}, fmt.Errorf("wiring %s, reference explorer: %w", w, err)
	}
	want := got[0]
	for _, a := range append(got[1:], ref.Answer(want.Verdict)) {
		if m := want.Mismatch(a); m != "" {
			return Answer{}, fmt.Errorf("configurations disagree: %s", m)
		}
	}
	return want, nil
}
