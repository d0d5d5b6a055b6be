package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metric is one reported figure. samples is the count it was computed
// from (latency samples, routes, set-ups); note marks a figure that does
// not apply to the workload, which the JSON still carries as 0 so every run
// of one mode reports the same metric names.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int64
	note    string
}

// selfCheck is a condition the run must meet for its figures to mean what
// the workload's name says.
type selfCheck struct {
	name   string
	ok     bool
	detail string
}

type result struct {
	workload  string
	mode      string
	attempted int64
	failed    int64
	metrics   []metric
	checks    []selfCheck
	notes     []string
}

func (r *result) add(name, unit string, value float64, samples int64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
}

// na records a metric that does not apply to this workload.
func (r *result) na(name, unit, why string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, note: "n/a: " + why})
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, selfCheck{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	if r.attempted < 1 || r.failed != 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report, then the one-line JSON result
// as the last line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "perfbench %s (%s)\n", r.workload, r.mode)
	for _, m := range r.metrics {
		switch {
		case m.note != "":
			fmt.Fprintf(w, "  %-32s %14s %-8s %s\n", m.name, "-", m.unit, m.note)
		case m.samples > 0:
			fmt.Fprintf(w, "  %-32s %14.6g %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		default:
			fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  check %-40s %-6s %s\n", c.name, status, c.detail)
	}
	fmt.Fprintf(w, "  routes: attempted=%d failed=%d\n", r.attempted, r.failed)
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
