package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json the benchmark itself reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDef(path string) (benchDef, error) {
	var def benchDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// row is the comparison of one end-to-end metric on one workload.
type row struct {
	workload, metric string
	old, new         [3]float64 // first quartile, median, third quartile
	wins, pairs      int
	verdict          string
}

// comparison is every row plus the warnings that are not per metric.
type comparison struct {
	rows     []row
	warnings []string
}

// compareRecords applies the gain and regression rules to untraced
// end-to-end records of a parent (old) and a change (new). Records pair up
// by position within a workload, as they do when runs alternate.
//
//   - gain: the change wins at least 9 of 10 pairs and the medians differ
//     by more than the parent's interquartile range;
//   - unresolved: either side's spread (IQR over median) is wider than the
//     metric's bound, unless every change run beats every parent run;
//   - REGRESSION: the change's median is worse than the parent's by more
//     than the bound.
//
// Records from different hosts are refused.
func compareRecords(def benchDef, oldRecs, newRecs []record) (comparison, error) {
	var c comparison
	oldBy, newBy := byWorkload(oldRecs), byWorkload(newRecs)
	var hostKey string
	for _, recs := range [][]record{oldRecs, newRecs} {
		for _, r := range recs {
			if hostKey == "" {
				hostKey = r.Host.key()
			} else if k := r.Host.key(); k != hostKey {
				return c, fmt.Errorf("refusing to compare records from different hosts:\n  %s\n  %s", hostKey, k)
			}
		}
	}
	for _, w := range def.Workloads {
		o, n := oldBy[w.Name], newBy[w.Name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		if or, nr := errorRate(o), errorRate(n); nr > or {
			c.warnings = append(c.warnings, fmt.Sprintf("error rate rose on %s: %.4f%% -> %.4f%%", w.Name, 100*or, 100*nr))
		}
		for _, m := range def.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			r := row{workload: w.Name, metric: m.Name, old: summary(ov), new: summary(nv)}
			for i := 0; i < min(len(ov), len(nv)); i++ {
				r.pairs++
				if better(m, nv[i], ov[i]) {
					r.wins++
				}
			}
			r.verdict = verdict(m, r, ov, nv)
			c.rows = append(c.rows, r)
		}
	}
	if len(c.rows) == 0 {
		return c, fmt.Errorf("no workload has untraced records on both sides")
	}
	return c, nil
}

func byWorkload(recs []record) map[string][]record {
	out := map[string][]record{}
	for _, r := range recs {
		if r.Kind == "e2e" && !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

func errorRate(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) [3]float64 {
	q1, q3 := quartiles(xs)
	return [3]float64{q1, median(xs), q3}
}

// better reports whether a reads strictly better than b.
func better(m metricDef, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

func verdict(m metricDef, r row, ov, nv []float64) string {
	oldIQR := r.old[2] - r.old[0]
	worse := (r.new[1] - r.old[1]) / r.old[1]
	if m.Better == "higher" {
		worse = -worse
	}
	spread := math.Max(oldIQR/r.old[1], (r.new[2]-r.new[0])/r.new[1])
	allBetter := true
	for _, n := range nv {
		for _, o := range ov {
			allBetter = allBetter && better(m, n, o)
		}
	}
	switch {
	case worse < 0 && r.wins*10 >= 9*r.pairs && math.Abs(r.new[1]-r.old[1]) > oldIQR:
		return "gain"
	case spread > m.Bound && !allBetter:
		return "unresolved"
	case worse > m.Bound:
		return "REGRESSION"
	default:
		return "no change"
	}
}

func runCompare(w io.Writer, benchFile, oldPath, newPath string) error {
	def, err := loadDef(benchFile)
	if err != nil {
		return err
	}
	oldRecs, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := readRecords(newPath)
	if err != nil {
		return err
	}
	c, err := compareRecords(def, oldRecs, newRecs)
	if err != nil {
		return err
	}
	c.print(w)
	return nil
}

func (c comparison) print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told q1\told median\told q3\tnew q1\tnew median\tnew q3\tpairs won\tverdict")
	for _, r := range c.rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%d/%d\t%s\n",
			r.workload, r.metric, r.old[0], r.old[1], r.old[2], r.new[0], r.new[1], r.new[2], r.wins, r.pairs, r.verdict)
	}
	tw.Flush()
	for _, msg := range c.warnings {
		fmt.Fprintln(w, msg)
	}
}
