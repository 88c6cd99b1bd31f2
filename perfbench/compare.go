package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// MetricSpec is one metric of BENCHMARK.json. Bound is 0 for per-layer
// metrics, which have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// readRecords loads the result records of a JSON-lines file, skipping
// lines that are not records (such as summary lines).
func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var r Record
		if json.Unmarshal(sc.Bytes(), &r) == nil && r.Provenance.Workload != "" {
			recs = append(recs, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return recs, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), median(d), q(3)
}

// Verdicts of a comparison row.
const (
	Better     = "better"
	Worse      = "worse"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Judge compares a metric's runs on the base and the change. A change is
// better when it wins at least nine tenths of the runs paired by seed
// and the medians differ, in its favour, by more than the base's
// interquartile range. It is worse when its median is worse than the
// base's by more than bound (for a metric without a bound: when it
// loses nine tenths of the pairs by more than the base's interquartile
// range). When either side's spread exceeds the bound, the row is
// unresolved, unless every run of the change reads better than every run
// of the base. Otherwise it is unchanged.
func Judge(spec MetricSpec, base, change []float64, pairs [][2]float64) string {
	if len(base) == 0 || len(change) == 0 || len(pairs) == 0 {
		return Unresolved
	}
	sign := 1.0
	if spec.Better == "lower" {
		sign = -1
	}
	q1a, meda, q3a := quartiles(base)
	q1b, medb, q3b := quartiles(change)
	gain := sign * (medb - meda)
	wins, losses := 0, 0
	for _, p := range pairs {
		switch d := sign * (p[1] - p[0]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	n := float64(len(pairs))
	iqr := q3a - q1a
	switch {
	case float64(wins) >= 0.9*n && gain > iqr:
		return Better
	case spec.Bound > 0 && gain < -spec.Bound*math.Abs(meda):
		return Worse
	case spec.Bound == 0 && float64(losses) >= 0.9*n && -gain > iqr:
		return Worse
	}
	if spec.Bound > 0 {
		spread := max(relSpread(q1a, meda, q3a), relSpread(q1b, medb, q3b))
		allBetter := slices.Min(change) > slices.Max(base)
		if sign < 0 {
			allBetter = slices.Max(change) < slices.Min(base)
		}
		if spread > spec.Bound && !allBetter {
			return Unresolved
		}
	}
	return Unchanged
}

// relSpread is the interquartile range as a share of the median.
func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(med)
}

// Compare prints one row per (workload, metric) judging the change's
// results against the base's by the benchmark's bounds. It refuses
// results from different host classes.
func Compare(w io.Writer, benchPath, basePath, changePath string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	host := base[0].Provenance.Host
	for _, r := range append(slices.Clone(base), change...) {
		if r.Provenance.Host != host {
			return fmt.Errorf("refusing to compare across host classes: %+v vs %+v", host, r.Provenance.Host)
		}
	}
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s/%s\n", host.CPUModel, host.NumCPU, host.GOMAXPROCS, host.GOOS, host.GOARCH)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3] (n)\tchange median [q1, q3] (n)\tchange\tverdict")
	for _, wl := range Workloads {
		for _, group := range []struct {
			trace bool
			specs []MetricSpec
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			for _, ms := range group.specs {
				bv := valuesBySeed(base, wl.Name, group.trace, ms.Name)
				cv := valuesBySeed(change, wl.Name, group.trace, ms.Name)
				if len(bv) == 0 && len(cv) == 0 {
					continue
				}
				bs, cs, pairs := pairUp(bv, cv)
				verdict := Judge(ms, bs, cs, pairs)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", wl.Name, ms.Name, describe(bs), describe(cs), relChange(bs, cs), verdict)
			}
		}
	}
	return tw.Flush()
}

// seeded is one run's value of a metric.
type seeded struct {
	seed  uint64
	value float64
}

// valuesBySeed collects a metric's values from the matching records.
func valuesBySeed(recs []Record, workload string, trace bool, metric string) []seeded {
	var out []seeded
	for _, r := range recs {
		if r.Provenance.Workload != workload || r.Provenance.Trace != trace {
			continue
		}
		if m, ok := r.Summary.Metrics[metric]; ok {
			out = append(out, seeded{r.Provenance.Seed, m.Value})
		}
	}
	return out
}

// pairUp returns both sides' values and their pairs: runs with the same
// seed pair up; when no seed is shared, runs pair in file order.
func pairUp(base, change []seeded) (bs, cs []float64, pairs [][2]float64) {
	for _, b := range base {
		bs = append(bs, b.value)
		for _, c := range change {
			if c.seed == b.seed {
				pairs = append(pairs, [2]float64{b.value, c.value})
				break
			}
		}
	}
	for _, c := range change {
		cs = append(cs, c.value)
	}
	if len(pairs) == 0 {
		for i := range min(len(bs), len(cs)) {
			pairs = append(pairs, [2]float64{bs[i], cs[i]})
		}
	}
	return bs, cs, pairs
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}

func relChange(base, change []float64) string {
	if len(base) == 0 || len(change) == 0 {
		return "-"
	}
	mb, mc := median(base), median(change)
	if mb == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(mc-mb)/math.Abs(mb))
}
