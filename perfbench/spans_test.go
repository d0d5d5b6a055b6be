package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestLedgerSelfTime(t *testing.T) {
	spans := []span{
		{Name: "request", ID: 1, Start: 0, End: 100},
		// Overlapping children cover 10..50; a child running past the
		// parent's end covers only up to it.
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120},
		{Name: "d", ID: 5, Parent: 3, Start: 25, End: 35},
	}
	rows := map[string]ledgerRow{}
	for _, r := range ledger(spans) {
		rows[r.name] = r
	}
	for name, self := range map[string]float64{"request": 50, "a": 20, "b": 20, "c": 30, "d": 10} {
		if got := rows[name].selfNs; got != self {
			t.Errorf("%s: self time %v, want %v", name, got, self)
		}
	}
	if rows["request"].meanNs != 100 {
		t.Errorf("request mean %v, want 100", rows["request"].meanNs)
	}
}

func TestLinkSpans(t *testing.T) {
	// Two routes overlap: route 10 opens at 0, route 20 at 50; each takes
	// at most two program spans.
	windows := []linkWindow{
		{start: 0, end: 200, id: 10, req: 1},
		{start: 50, end: 250, id: 20, req: 2},
	}
	spans := []span{
		{Name: "engine.request", ID: 100, Start: 2, End: 80},    // only route 10 is open
		{Name: "engine.request", ID: 101, Start: 52, End: 150},  // both open: the newer one
		{Name: "engine.request", ID: 102, Start: 53, End: 150},  // the newer one again
		{Name: "engine.request", ID: 105, Start: 54, End: 150},  // the newer one is full: the older one
		{Name: "engine.request", ID: 103, Start: 300, End: 310}, // no route open
		{Name: "other", ID: 104, Start: 5, End: 6},
	}
	linked, ambiguous := linkSpans(spans, "engine.request", windows, 2, 10)
	if linked != 4 {
		t.Fatalf("linked %d spans, want 4", linked)
	}
	// Only route 20 opened less than 10 before spans 101, 102 and 105, so
	// none is ambiguous.
	if ambiguous != 0 {
		t.Errorf("%d ambiguous, want 0", ambiguous)
	}
	for id, parent := range map[int64]int64{100: 10, 101: 20, 102: 20, 105: 10, 103: 0, 104: 0} {
		for _, s := range spans {
			if s.ID == id && s.Parent != parent {
				t.Errorf("span %d linked to %d, want %d", id, s.Parent, parent)
			}
		}
	}
	// With a slack covering both openings, the three spans that started
	// while both routes were open are ambiguous.
	for i := range windows {
		windows[i].got = 0
	}
	for i := range spans {
		spans[i].Parent = 0
	}
	if _, ambiguous = linkSpans(spans, "engine.request", windows, 2, 1000); ambiguous != 3 {
		t.Errorf("%d ambiguous with a wide slack, want 3", ambiguous)
	}
}

func TestRecorderStopsWhenFull(t *testing.T) {
	stop := new(atomic.Bool)
	base := time.Now()
	r := newRecorder(base, 0, 2, stop)
	a := r.add("x", 0, 1, base, base.Add(time.Microsecond))
	b := r.add("y", a, 1, base, base)
	if a == 0 || b == 0 || a == b {
		t.Fatalf("ids %d, %d", a, b)
	}
	if stop.Load() {
		t.Fatal("stopped before full")
	}
	if id := r.add("z", 0, 1, base, base); id != 0 || !stop.Load() {
		t.Fatal("a full recorder kept recording or did not raise stop")
	}
	if got := r.spans[0]; got.End-got.Start != int64(time.Microsecond) || got.Name != "x" {
		t.Fatalf("recorded %+v", got)
	}
}
