package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json as far as the harness reads it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// loadRuns reads a comma-separated set of -out files: one side of a
// comparison, each file one run.
func loadRuns(list string) ([]*resultDoc, error) {
	var docs []*resultDoc
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc resultDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if doc.Format != resultFormat {
			return nil, fmt.Errorf("%s: format %q, want %q", path, doc.Format, resultFormat)
		}
		docs = append(docs, &doc)
	}
	return docs, nil
}

// sideValues gathers one end-to-end metric of one workload over a side's
// runs, sorted. failed_frac is read from the result itself.
func sideValues(docs []*resultDoc, workload, name string) []float64 {
	var out []float64
	for _, d := range docs {
		for _, r := range d.Results {
			if r.Workload != workload {
				continue
			}
			if name == "failed_frac" {
				out = append(out, r.FailedFrac)
			} else if m, ok := r.EndToEnd[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// judge applies one metric's bound. worse is how much worse b's median is
// than a's, as a share of a's (the ratio's base); negative is better. With
// four or more runs on side a, their own spread (interquartile range over
// median) is the noise floor: when it exceeds the bound the pair is
// unresolved, unless every run of b beats every run of a.
func judge(a, b []float64, higherBetter bool, bound float64) (verdict string, worse, spread float64) {
	ma, mb := quantile(a, 0.5), quantile(b, 0.5)
	switch {
	case ma == mb:
		worse = 0
	case ma == 0:
		worse = 1
	default:
		worse = (mb - ma) / ma
	}
	if higherBetter && worse != 0 {
		worse = -worse
	}
	if len(a) >= 4 && ma != 0 {
		spread = (quantile(a, 0.75) - quantile(a, 0.25)) / ma
	}
	if spread > bound {
		allBetter := b[len(b)-1] < a[0]
		if higherBetter {
			allBetter = b[0] > a[len(a)-1]
		}
		if allBetter {
			return "better", worse, spread
		}
		return "unresolved", worse, spread
	}
	switch {
	case worse > bound:
		return "worse", worse, spread
	case worse < -bound:
		return "better", worse, spread
	}
	return "same", worse, spread
}

// compareFiles prints one row per (workload, end-to-end metric) judging
// side b against side a by the spec's bounds, and reports whether any row
// is worse. failed_frac is judged with bound 0: any failure on b that a did
// not have is worse.
func compareFiles(w io.Writer, specPath, aList, bList string) (anyWorse bool, err error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(aList)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(bList)
	if err != nil {
		return false, err
	}
	metrics := append([]specMetric(nil), spec.EndToEnd...)
	metrics = append(metrics, specMetric{Name: "failed_frac", Unit: "ratio", Better: "lower", Bound: 0})
	fmt.Fprintf(w, "%-14s %-20s %-10s %14s %14s %9s %8s %7s  (a = base: %d runs, b: %d runs)\n",
		"workload", "metric", "verdict", "a median", "b median", "worse by", "bound", "spread", len(a), len(b))
	rows := 0
	for _, wl := range spec.Workloads {
		for _, m := range metrics {
			av, bv := sideValues(a, wl.Name, m.Name), sideValues(b, wl.Name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			rows++
			verdict, worse, spread := judge(av, bv, m.Better == "higher", m.Bound)
			if verdict == "worse" {
				anyWorse = true
			}
			fmt.Fprintf(w, "%-14s %-20s %-10s %14.6g %14.6g %+8.2f%% %7.1f%% %6.1f%%\n",
				wl.Name, m.Name, verdict, quantile(av, 0.5), quantile(bv, 0.5), 100*worse, 100*m.Bound, 100*spread)
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("the two sides share no workload with measured end-to-end metrics")
	}
	return anyWorse, nil
}
