package main

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"anonshm/internal/canon"
	"anonshm/internal/core"
	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/store"
	"anonshm/internal/view"
)

// poolInputs are the distinct inputs of every pooled system: three
// processors in three singleton groups.
var poolInputs = []string{"a", "b", "c"}

// Wiring is one wiring assignment: a register permutation per processor.
type Wiring [][]int

// String renders the assignment as "012.120.201", one permutation per
// processor; the known answers and the provenance key wirings by it.
func (w Wiring) String() string {
	parts := make([]string, len(w))
	for i, perm := range w {
		var b strings.Builder
		for _, r := range perm {
			fmt.Fprintf(&b, "%d", r)
		}
		parts[i] = b.String()
	}
	return strings.Join(parts, ".")
}

// Pool returns the shared wiring pool every workload draws from: the
// register-orbit representatives of N=3 wirings with distinct inputs.
func Pool() []Wiring {
	var out []Wiring
	for w := range explore.Wirings(3, 3, explore.WiringOptions{Filter: explore.FilterOrbits, Groups: poolInputs}) {
		out = append(out, w)
	}
	return out
}

// Config is the resolved explorer configuration of a workload: every
// option that changes what explore.Run does, recorded in the provenance
// of each result.
type Config struct {
	Engine     string `json:"engine"`
	Workers    int    `json:"workers"`
	Symmetry   string `json:"symmetry"`
	Store      string `json:"store"`
	MemLimit   string `json:"mem_limit,omitempty"`
	MaxCrashes int    `json:"max_crashes"`
	Invariant  string `json:"invariant"`
	// Prune is PruneRule or "" (no cut).
	Prune string `json:"prune"`
}

// PruneRule names the cut every workload applies, PruneTwoInputs.
const PruneRule = "any view holds >=2 inputs"

// Workload is one named benchmark input: a configuration plus what a
// seed draws from the pool for it.
type Workload struct {
	Name string
	Cfg  Config
	// Draw is the number of wirings a seed draws.
	Draw int
	// Target is the known state total a draw must match, within
	// drawTolerance.
	Target int
	// Group, when set, restricts the draw to wirings whose symmetry
	// group under the workload's canonicalizer has this size, so every
	// draw costs about the same per state.
	Group int
}

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
// Each draw is sized for a round of one to three seconds on a 2-CPU host,
// so a run's median is taken over 13–35 rounds.
var Workloads = []Workload{
	{Name: "snap3-sym", Draw: 6, Target: 130_000, Group: 2, Cfg: Config{Engine: "dfs", Workers: 1, Symmetry: "full", Store: "mem", Invariant: "snapshot", Prune: PruneRule}},
	{Name: "snap3-disk", Draw: 2, Target: 80_000, Cfg: Config{Engine: "parallel", Workers: 1, Symmetry: "none", Store: "disk", MemLimit: "256KiB", Invariant: "snapshot", Prune: PruneRule}},
	{Name: "wait3-crash", Draw: 1, Target: 128_042, Cfg: Config{Engine: "parallel", Workers: 1, Symmetry: "none", Store: "mem", MaxCrashes: 2, Invariant: "waitfree", Prune: PruneRule}},
}

// LookupWorkload returns the named workload.
func LookupWorkload(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Options resolves the configuration into explorer options for a system
// whose inputs interned to ids. The disk tier's StoreDir is left for
// Check to fill in per run.
func (c Config) Options(ids []view.ID) (explore.Options, error) {
	engine, err := explore.ParseEngine(c.Engine)
	if err != nil {
		return explore.Options{}, err
	}
	var sym canon.Symmetry
	if err := sym.Set(c.Symmetry); err != nil {
		return explore.Options{}, err
	}
	var kind store.Kind
	if err := kind.Set(c.Store); err != nil {
		return explore.Options{}, err
	}
	opts := explore.Options{
		Engine:        engine,
		Workers:       c.Workers,
		Canonicalizer: sym.Canonicalizer(),
		MaxCrashes:    c.MaxCrashes,
		Store:         kind,
	}
	if kind == store.Disk && c.MemLimit != "" {
		if err := opts.MemLimit.Set(c.MemLimit); err != nil {
			return explore.Options{}, err
		}
	}
	switch c.Prune {
	case PruneRule:
		opts.Prune = PruneTwoInputs
	case "":
	default:
		return explore.Options{}, fmt.Errorf("unknown prune rule %q", c.Prune)
	}
	switch c.Invariant {
	case "snapshot":
		opts.Invariant = explore.SnapshotInvariant(ids)
	case "waitfree":
		opts.Invariant = explore.WaitFree(explore.DefaultSoloBound(3, 3))
	default:
		return explore.Options{}, fmt.Errorf("unknown invariant %q", c.Invariant)
	}
	return opts, nil
}

// PruneTwoInputs cuts the search once any processor's view holds two or
// more inputs. Views only grow, so the pruned space does not depend on
// visit order and every engine explores the same states.
func PruneTwoInputs(n explore.Node) bool {
	for _, m := range n.Sys.Procs {
		if v, ok := m.(core.Viewer); ok && v.View().Len() >= 2 {
			return true
		}
	}
	return false
}

// NewSystem builds the Figure 3 system for a pooled wiring and returns it
// with its inputs' view IDs.
func NewSystem(w Wiring) (*machine.System, []view.ID, error) {
	sys, in, err := core.NewSnapshotSystem(core.Config{Inputs: poolInputs, Wirings: w})
	if err != nil {
		return nil, nil, fmt.Errorf("wiring %s: %w", w, err)
	}
	ids := make([]view.ID, len(poolInputs))
	for i, label := range poolInputs {
		ids[i] = in.Intern(label)
	}
	return sys, ids, nil
}

// drawTolerance is how far a draw's known state total may stray from the
// workload's target: draws are size-matched so that the seed picks which
// wirings run, not how much work a run does.
const drawTolerance = 0.01

// Draw picks a workload's wirings for a seed: Draw distinct pool members
// (of symmetry group size Group, when set) whose known state total lies
// within drawTolerance of Target. The same seed always draws the same
// wirings, in the same order.
func Draw(seed uint64, wl Workload, pool []Wiring, ans Answers) ([]Wiring, error) {
	var eligible []Wiring
	var sizes []int
	for _, w := range pool {
		a, ok := ans.Lookup(wl.Name, w)
		if !ok {
			return nil, fmt.Errorf("no known answer for wiring %s on %s", w, wl.Name)
		}
		if wl.Group == 0 || a.GroupSize == wl.Group {
			eligible = append(eligible, w)
			sizes = append(sizes, a.States)
		}
	}
	if len(eligible) < wl.Draw {
		return nil, fmt.Errorf("%s: %d wirings of group size %d, want %d", wl.Name, len(eligible), wl.Group, wl.Draw)
	}
	rng := rand.New(rand.NewPCG(seed, 0x616e6f6e73686d)) // "anonshm"
	for try := 0; try < 1_000_000; try++ {
		idx := rng.Perm(len(eligible))[:wl.Draw]
		total := 0
		for _, i := range idx {
			total += sizes[i]
		}
		if d := float64(total)/float64(wl.Target) - 1; d >= -drawTolerance && d <= drawTolerance {
			out := make([]Wiring, len(idx))
			for j, i := range idx {
				out[j] = eligible[i]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("no draw of %d wirings near %d states for %s", wl.Draw, wl.Target, wl.Name)
}
