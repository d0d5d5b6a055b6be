package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	bnbnet "repro"
)

// span is one timed interval of a traced run: a benchmark-side span around
// a public call, or a program span read back from the program's tracer.
// Times are nanoseconds since the traced phase started. Parent is 0 for a
// root; Req is the request id, 0 for work of no request (health probes).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps one client's benchmark-side spans in memory. Its buffer
// is allocated before the phase, so recording never allocates; once it is
// full the recorder raises stop and the phase ends.
type recorder struct {
	base  time.Time
	spans []span
	next  int64
	stop  *atomic.Bool
}

func newRecorder(base time.Time, client, capacity int, stop *atomic.Bool) *recorder {
	return &recorder{base: base, spans: make([]span, 0, capacity), next: int64(client+1) << 40, stop: stop}
}

// add records one span and returns its id.
func (r *recorder) add(name string, parent, req int64, t0, t1 time.Time) int64 {
	if len(r.spans) == cap(r.spans) {
		r.stop.Store(true)
		return 0
	}
	r.next++
	r.spans = append(r.spans, span{Name: name, ID: r.next, Parent: parent, Req: req,
		Start: int64(t0.Sub(r.base)), End: int64(t1.Sub(r.base))})
	return r.next
}

// programSpanBase offsets the ids of program spans away from the
// recorders' ids.
const programSpanBase = int64(1) << 60

// programSpans converts the tracer's spans that started inside the phase.
// Request spans become "engine.request" with derived children for queue
// wait, service and plan compile; probe spans become "plane.probe".
func programSpans(ts []bnbnet.TraceSpan, base time.Time) []span {
	var out []span
	for _, t := range ts {
		start := int64(t.Start.Sub(base))
		if start < 0 {
			continue
		}
		id := programSpanBase + int64(t.ID)*4
		switch t.Kind {
		case "probe":
			out = append(out, span{Name: "plane.probe", ID: id, Start: start, End: start + int64(t.Total)})
		case "request":
			out = append(out, span{Name: "engine.request", ID: id, Start: start, End: start + int64(t.Total)})
			svc := start + int64(t.QueueWait)
			out = append(out,
				span{Name: "engine.queue", ID: id + 1, Parent: id, Start: start, End: svc},
				span{Name: "engine.service", ID: id + 2, Parent: id, Start: svc, End: start + int64(t.Total)})
			if t.PlanCompile > 0 {
				// The span records how long the compile took, not when; it is
				// placed at the start of service, where the miss happens.
				out = append(out, span{Name: "core.compile", ID: id + 3, Parent: id + 2, Start: svc, End: svc + int64(t.PlanCompile)})
			}
		}
	}
	return out
}

// ledgerRow is one span name's mean duration and mean self time: the part
// of the span its child spans do not cover.
type ledgerRow struct {
	name           string
	count          int
	meanNs, selfNs float64
}

// ledger computes every span name's mean duration and self time.
func ledger(spans []span) []ledgerRow {
	children := make(map[int64][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	type acc struct {
		n         int
		dur, self int64
	}
	rows := map[string]*acc{}
	for i := range spans {
		s := &spans[i]
		a := rows[s.Name]
		if a == nil {
			a = &acc{}
			rows[s.Name] = a
		}
		a.n++
		a.dur += s.dur()
		a.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]ledgerRow, 0, len(rows))
	for name, a := range rows {
		out = append(out, ledgerRow{name: name, count: a.n, meanNs: float64(a.dur) / float64(a.n), selfNs: float64(a.self) / float64(a.n)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of s the union of kids covers.
func covered(s *span, kids []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// printLedger writes the self-time ledger as notes of the result.
func printLedger(r *result, rows []ledgerRow) {
	for _, row := range rows {
		r.notef("ledger %-16s n=%-7d mean=%10.3f us  self=%10.3f us", row.name, row.count, row.meanNs/1e3, row.selfNs/1e3)
	}
}

// writeSpans writes every span as one JSON object per line.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// linkWindow is a benchmark-side span that program spans are linked into.
type linkWindow struct {
	start, end int64
	id, req    int64
	got        int
}

// linkSpans sets the parent of every program span named child to the
// window its start falls in. Program spans carry no request id, so with two
// clients a span can fall in two overlapping windows; it then goes to the
// window that opened last and still has room for fewer than capacity
// spans. The choice is ambiguous when another candidate window opened less
// than slack before the span started: a request's program spans start
// within slack of its window opening. It returns the spans linked and how
// many of those were ambiguous.
func linkSpans(spans []span, child string, windows []linkWindow, capacity int, slack int64) (linked, ambiguous int) {
	sort.Slice(windows, func(i, j int) bool { return windows[i].start < windows[j].start })
	var order []int
	for i := range spans {
		if spans[i].Name == child {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })
	for _, i := range order {
		s := &spans[i]
		// Windows are sorted by start; the candidates open at or before s.
		j := sort.Search(len(windows), func(k int) bool { return windows[k].start > s.Start })
		var best *linkWindow
		recent := 0
		for k := j - 1; k >= 0 && k >= j-16; k-- {
			w := &windows[k]
			if s.Start > w.end {
				continue
			}
			if s.Start-w.start < slack {
				recent++
			}
			if best == nil && w.got < capacity {
				best = w
			}
		}
		if best == nil {
			continue
		}
		s.Parent, s.Req = best.id, best.req
		best.got++
		linked++
		if recent > 1 {
			ambiguous++
		}
	}
	return linked, ambiguous
}
