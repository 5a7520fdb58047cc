package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []bound `json:"end_to_end"`
}

// bound is one end-to-end metric's regression rule: the share of the
// parent's median by which it may worsen.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is the comparison of one metric on one workload.
type verdict struct {
	parent, change quartet
	winShare       float64 // share of pairs the change wins; ties count for neither
	delta          float64 // change median over parent median, minus 1
	call           string  // better, same, worse or unresolved
}

type quartet struct{ q1, median, q3 float64 }

// compare applies BENCHMARK.json's bounds to alternating parent/change
// report pairs (-out files of one seed and run length).
func compare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) < 2 || len(files)%2 != 0 {
		return fmt.Errorf("want PARENT CHANGE report pairs, got %d files", len(files))
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		return err
	}
	// values[workload][metric] holds the parent and the change series.
	values := map[string]map[string]*[2][]float64{}
	for f, path := range files {
		var rep report
		if err := readJSON(path, &rep); err != nil {
			return err
		}
		for _, w := range rep.Workloads {
			if values[w.Name] == nil {
				values[w.Name] = map[string]*[2][]float64{}
			}
			for _, b := range sp.EndToEnd {
				m, ok := w.Metrics[b.Name]
				if !ok {
					continue
				}
				s := values[w.Name][b.Name]
				if s == nil {
					s = &[2][]float64{}
					values[w.Name][b.Name] = s
				}
				s[f%2] = append(s[f%2], m.Value)
			}
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tbound\tverdict\n")
	for _, n := range names {
		for _, b := range sp.EndToEnd {
			s := values[n][b.Name]
			if s == nil || len(s[0]) != len(s[1]) || len(s[0]) < 2 {
				continue
			}
			v := judge(s[0], s[1], b)
			fmt.Fprintf(tw, "%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%%\t%.0f%%\t%.0f%%\t%s\n",
				n, b.Name, v.parent.median, v.parent.q1, v.parent.q3, v.change.median, v.change.q1, v.change.q3,
				100*v.delta, 100*v.winShare, 100*b.Bound, v.call)
		}
	}
	return tw.Flush()
}

// judge compares paired series. A change is worse when its median is worse
// than the parent's by more than the bound; better when it wins at least
// nine tenths of at least ten pairs and the medians differ by more than the
// parent's quartile spread; unresolved when the parent's own spread exceeds
// the bound and not every change run beats every parent run; else same.
func judge(parent, change []float64, b bound) verdict {
	v := verdict{parent: quartiles(parent), change: quartiles(change)}
	sign := 1.0 // +1 when lower is better
	if b.Better == "higher" {
		sign = -1
	}
	wins := 0
	for i := range parent {
		if sign*(change[i]-parent[i]) < 0 {
			wins++
		}
	}
	v.winShare = float64(wins) / float64(len(parent))
	v.delta = v.change.median/v.parent.median - 1
	worse := sign * v.delta
	spread := (v.parent.q3 - v.parent.q1) / math.Abs(v.parent.median)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > b.Bound:
		v.call = "worse"
	case len(parent) >= 10 && v.winShare >= 0.9 && math.Abs(v.change.median-v.parent.median) > v.parent.q3-v.parent.q1:
		v.call = "better"
	case spread > b.Bound && !allBetter:
		v.call = "unresolved"
	default:
		v.call = "same"
	}
	return v
}

// quartiles computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (its default exclusive method).
func quartiles(xs []float64) quartet {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return quartet{q1: q(1), median: q(2), q3: q(3)}
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
