package main

import (
	"fmt"
	"sort"
	"strings"

	"anonshm/internal/exitcode"
	"anonshm/internal/obs"
	"anonshm/internal/trace"
)

// runTrend renders run-history trajectories: each path is either a
// JSONL ledger or a single -report JSON file (e.g. the committed
// BENCH_*.json history), sniffed per file; both hold reports, and every
// report goes through the one projection, trendPointOf. Reports with the
// same tool and resolved config form one trajectory in the order given.
// When the latest run of a trajectory has a states/sec below threshold ×
// the median of the earlier runs, the run is flagged and the returned
// error carries exitcode.Regression.
func runTrend(paths []string, threshold float64) error {
	var points []trendPoint
	for _, path := range paths {
		reps, err := loadTrend(path)
		if err != nil {
			return err
		}
		for _, rep := range reps {
			if p, ok := trendPointOf(rep); ok {
				points = append(points, p)
			}
		}
	}
	if len(points) == 0 {
		return fmt.Errorf("no trend entries in %s", strings.Join(paths, ", "))
	}
	groups, order := groupPoints(points)
	for _, key := range order {
		fmt.Printf("== %s\n\n", key)
		rows := make([][]string, 0, len(groups[key]))
		for _, p := range groups[key] {
			rows = append(rows, []string{
				orDash(p.time), formatFloat(p.states),
				fmt.Sprintf("%.0f", p.statesPerSec), fmt.Sprintf("%.3gs", p.wallSeconds),
				orDash(p.outcome), phaseSummary(p.phases),
			})
		}
		fmt.Print(trace.Table([]string{"time", "states", "states/sec", "wall", "outcome", "phases"}, rows))
		fmt.Println()
	}
	regs := trendRegressions(points, threshold)
	if len(regs) == 0 {
		return nil
	}
	msgs := make([]string, len(regs))
	for i, r := range regs {
		msgs[i] = fmt.Sprintf("%s: latest %.0f states/sec vs median %.0f over %d prior runs (threshold %.0f%%)",
			r.Key, r.Latest, r.Median, r.Priors, 100*threshold)
	}
	return exitcode.WithCode(exitcode.Regression,
		fmt.Errorf("throughput regression:\n  %s", strings.Join(msgs, "\n  ")))
}

// loadTrend reads one history file: a single report JSON, or else a
// ledger of report lines.
func loadTrend(path string) ([]*obs.Report, error) {
	if rep, err := obs.ReadReportFile(path); err == nil {
		return []*obs.Report{rep}, nil
	}
	return obs.ReadLedger(path)
}

// trendPoint is one run of a trajectory.
type trendPoint struct {
	key, time, outcome                string
	states, statesPerSec, wallSeconds float64
	phases                            map[string]float64
}

// trendPointOf projects a report read back from a file onto its trend
// point: the key is the tool plus the resolved config, the figures come
// from the sweep section and the traced phases. Reports without a
// config (written before reports carried one) or without sweep totals
// (anonsim runs) have no throughput trajectory.
func trendPointOf(rep *obs.Report) (trendPoint, bool) {
	config, _ := rep.Config.(map[string]any)
	sweep, _ := rep.Sections["sweep"].(map[string]any)
	if len(config) == 0 || sweep == nil {
		return trendPoint{}, false
	}
	num := func(key string) float64 {
		f, _ := sweep[key].(float64)
		return f
	}
	p := trendPoint{
		key: configKey(rep.Tool, config), time: rep.Time, outcome: rep.Outcome,
		states: num("totalStates"), statesPerSec: num("statesPerSec"), wallSeconds: num("wallSeconds"),
	}
	tr, _ := rep.Sections["trace"].(map[string]any)
	phases, _ := tr["phases"].(map[string]any)
	for k, v := range phases {
		if p.phases == nil {
			p.phases = map[string]float64{}
		}
		p.phases[k], _ = v.(float64)
	}
	return p, p.states > 0
}

// configKey renders a trajectory's identity: the tool and its config's
// fields in sorted key order.
func configKey(tool string, config map[string]any) string {
	keys := make([]string, 0, len(config))
	for k := range config {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := []string{tool}
	for _, k := range keys {
		v, ok := config[k].(string)
		if !ok {
			v = compactJSON(config[k])
		}
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, " ")
}

// groupPoints buckets points by key, preserving the order keys first
// appear.
func groupPoints(points []trendPoint) (map[string][]trendPoint, []string) {
	groups := map[string][]trendPoint{}
	var order []string
	for _, p := range points {
		if _, ok := groups[p.key]; !ok {
			order = append(order, p.key)
		}
		groups[p.key] = append(groups[p.key], p)
	}
	return groups, order
}

// trendRegression describes one trajectory whose latest run fell below
// the threshold fraction of its historical median throughput.
type trendRegression struct {
	Key    string
	Latest float64
	Median float64
	Priors int
}

// trendRegressions flags trajectories whose latest states/sec dropped
// below threshold × median of the earlier successful runs. A trajectory
// needs at least two comparable priors — a single prior says nothing
// about variance. A threshold of 0 disables the check.
func trendRegressions(points []trendPoint, threshold float64) []trendRegression {
	if threshold <= 0 {
		return nil
	}
	groups, order := groupPoints(points)
	var out []trendRegression
	for _, key := range order {
		ps := groups[key]
		latest := ps[len(ps)-1]
		if latest.statesPerSec <= 0 {
			continue
		}
		var rates []float64
		for _, p := range ps[:len(ps)-1] {
			if p.statesPerSec > 0 && (p.outcome == "" || p.outcome == "ok") {
				rates = append(rates, p.statesPerSec)
			}
		}
		if len(rates) < 2 {
			continue
		}
		m := median(rates)
		if latest.statesPerSec < threshold*m {
			out = append(out, trendRegression{Key: key, Latest: latest.statesPerSec, Median: m, Priors: len(rates)})
		}
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// phaseSummary renders the three largest phase timings compactly.
func phaseSummary(phases map[string]float64) string {
	if len(phases) == 0 {
		return "-"
	}
	type kv struct {
		k string
		v float64
	}
	all := make([]kv, 0, len(phases))
	for k, v := range phases {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if len(all) > 3 {
		all = all[:3]
	}
	parts := make([]string, len(all))
	for i, p := range all {
		parts[i] = fmt.Sprintf("%s=%.3gs", p.k, p.v)
	}
	return strings.Join(parts, " ")
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
