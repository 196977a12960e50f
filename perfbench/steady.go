package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// The steadiness report: run one workload K times, one seed each, and show
// for every metric the median, the quartiles as Python's
// statistics.quantiles(values, n=4) gives them, the interquartile spread as
// a share of the median, and the largest deviation from the median. A
// metric whose spread exceeds its bound in BENCHMARK.json is flagged, and so
// is one above a third of it, the margin a steady benchmark keeps.

// runSet is a saved steadiness run: the workload and every run's result.
type runSet struct {
	Workload string   `json:"workload"`
	Trace    int      `json:"trace"`
	Seeds    []int64  `json:"seeds"`
	Runs     []result `json:"runs"`
}

// bound is one metric's entry in BENCHMARK.json.
type bound struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBounds() map[string]bound {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		logf("BENCHMARK.json: %v", err)
		return nil
	}
	out := make(map[string]bound)
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		out[m.Name] = m
	}
	return out
}

// steadyReport runs this binary k times on the workload with seeds seed,
// seed+1, ... and prints the spread of every metric.
func steadyReport(w io.Writer, workload string, seed int64, seconds float64, traced, k int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Workload: workload, Trace: traced}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", strconv.Itoa(traced))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run seed %d: %w", s, err)
		}
		res, err := lastResult(stdout)
		if err != nil {
			return fmt.Errorf("run seed %d: %w", s, err)
		}
		set.Seeds = append(set.Seeds, s)
		set.Runs = append(set.Runs, res)
		fmt.Fprintf(w, "seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
	}
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	printSpread(w, set, loadBounds())
	return nil
}

func lastResult(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}

// quartiles is statistics.quantiles(values, n=4) with its default
// exclusive method.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	d := sorted(vs)
	n := len(d)
	if n < 2 {
		if n == 1 {
			return d[0], d[0], d[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func metricValues(set runSet, name string) []float64 {
	var vs []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func metricNames(set runSet) []string {
	seen := make(map[string]bool)
	var names []string
	for _, r := range set.Runs {
		for n := range r.Metrics {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

func printSpread(w io.Writer, set runSet, bounds map[string]bound) {
	fmt.Fprintf(w, "%s, %d runs\n", set.Workload, len(set.Runs))
	fmt.Fprintf(w, "%-28s %12s %12s %12s %8s %8s %8s  %s\n", "metric", "median", "q1", "q3", "spread", "maxdev", "bound", "")
	for _, name := range metricNames(set) {
		vs := metricValues(set, name)
		med := median(vs)
		q1, _, q3 := quartiles(vs)
		spread, maxDev := 0.0, 0.0
		if med != 0 {
			spread = (q3 - q1) / abs(med)
			for _, v := range vs {
				maxDev = max(maxDev, abs(v-med)/abs(med))
			}
		}
		flag, limit := "", "-"
		if b, ok := bounds[name]; ok && b.Bound != nil {
			limit = fmt.Sprintf("%.3f", *b.Bound)
			switch {
			case name == "setup_s":
			case spread > *b.Bound:
				flag = "SPREAD ABOVE BOUND"
			case spread > *b.Bound/3:
				flag = "spread above a third of bound"
			}
		}
		fmt.Fprintf(w, "%-28s %12.4f %12.4f %12.4f %8.4f %8.4f %8s  %s\n", name, med, q1, q3, spread, maxDev, limit, flag)
	}
}

// compareSets compares the medians of two saved run sets metric by metric
// and flags a second median worse than the first by more than the bound.
func compareSets(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("--compare wants two files, got %d", len(paths))
	}
	var sets [2]runSet
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	bounds := loadBounds()
	fmt.Fprintf(w, "%s: %s vs %s\n", sets[0].Workload, paths[0], paths[1])
	fmt.Fprintf(w, "%-28s %12s %12s %9s %8s  %s\n", "metric", "first", "second", "worse_by", "bound", "")
	for _, name := range metricNames(sets[0]) {
		a, b := median(metricValues(sets[0], name)), median(metricValues(sets[1], name))
		worse := 0.0
		if a != 0 {
			worse = (b - a) / abs(a)
		}
		bd, ok := bounds[name]
		if ok && bd.Better == "higher" {
			worse = -worse
		}
		flag, limit := "", "-"
		if ok && bd.Bound != nil {
			limit = fmt.Sprintf("%.3f", *bd.Bound)
			if worse > *bd.Bound {
				flag = "WORSE THAN BOUND"
			}
		}
		fmt.Fprintf(w, "%-28s %12.4f %12.4f %9.4f %8s  %s\n", name, a, b, worse, limit, flag)
	}
	return nil
}
