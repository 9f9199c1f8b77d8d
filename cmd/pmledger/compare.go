package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, the median and the third quartile
// as Python's statistics.quantiles(values, n=4) computes them (its default
// exclusive method), the definition the benchmark's spread is judged by.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(q [3]float64) float64 {
	if q[1] == 0 {
		return math.Inf(1)
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// runCompare applies the bounds of BENCHMARK.json to every pairing of
// end-to-end metric and workload in two result sets (A the parent, B the
// change). A pairing regresses when B's median is worse than A's by more
// than the bound; it is unresolved when either side's spread is wider than
// the bound, unless every run of B reads better than every run of A. The
// exit code is 0 only when every pairing is ok or better and no run failed
// a check.
func runCompare(benchPath, aPath, bPath string, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "pmledger: %v\n", err)
		return 2
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(stderr, "pmledger: %s: %v\n", benchPath, err)
		return 2
	}
	a, err := readSet(aPath)
	if err != nil {
		fmt.Fprintf(stderr, "pmledger: %v\n", err)
		return 2
	}
	b, err := readSet(bPath)
	if err != nil {
		fmt.Fprintf(stderr, "pmledger: %v\n", err)
		return 2
	}
	ok := true
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tspread A/B\tbound\tverdict")
	for _, w := range workloadNames() {
		ra, rb := untracedRuns(a, w), untracedRuns(b, w)
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			qa, qb := quartiles(va), quartiles(vb)
			change := (qb[1] - qa[1]) / qa[1]
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			sa, sb := spreadOf(qa), spreadOf(qb)
			verdict := "ok"
			switch {
			case len(va) == 0 || len(vb) == 0:
				verdict = "missing"
			case max(sa, sb) > m.Bound:
				verdict = "unresolved"
				if allBetter(va, vb, m.Better) {
					verdict = "better"
				}
			case worse > m.Bound:
				verdict = "REGRESSION"
			case -worse > m.Bound:
				verdict = "better"
			}
			if verdict != "ok" && verdict != "better" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%+.1f%%\t%.1f%%/%.1f%%\t%.0f%%\t%s\n",
				w, m.Name, qa[1], qa[0], qa[2], len(va), qb[1], qb[0], qb[2], len(vb),
				100*change, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		if fa > 0 || fb > 0 {
			ok = false
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%g\t%g\t\t\t0\t\n", w, fa, fb)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintf(stderr, "pmledger: %v\n", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func untracedRuns(set resultSet, workload string) []runRecord {
	var out []runRecord
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func values(runs []runRecord, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedFrac is the share of failed checks over all checks of the runs.
func failedFrac(runs []runRecord) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// allBetter reports whether every value of b is better than every value of
// a.
func allBetter(a, b []float64, better string) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	qa, qb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(qa)
	sort.Float64s(qb)
	if better == "higher" {
		return qb[0] > qa[len(qa)-1]
	}
	return qb[len(qb)-1] < qa[0]
}
