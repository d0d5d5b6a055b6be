package metrics

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the full exposition byte-for-byte against
// testdata/exposition.golden, fed by a fixed observation script. Regenerate
// with: go test ./internal/metrics -run Golden -update
func TestWritePrometheusGolden(t *testing.T) {
	var m Metrics
	m.ObserveRoute(32, 500*time.Nanosecond, nil)
	m.ObserveRoute(32, 3*time.Microsecond, nil)
	m.ObserveRoute(32, 100*time.Microsecond, nil)
	m.ObserveRoute(32, 0, errors.New("boom"))
	m.AddFaults(2)
	m.AddTimeout()
	m.AddRequeues(3)
	m.AddFailover()
	m.AddRepair()
	m.AddReadmit()
	m.AddShed()
	m.SetPlaneStates(2, 1, 0, 0)
	m.AddPlanHit()
	m.AddPlanHit()
	m.AddPlanMiss()
	m.AddPlanEviction()
	m.AddPlanCompile(10 * time.Microsecond)
	m.AddHedge()
	m.AddHedge()
	m.AddHedgeWin()
	m.AddSlowQuarantine()
	m.AddPoisonMark()
	m.AddPoisonedReject()
	m.AddClassSubmitted(0)
	m.AddClassSubmitted(1)
	m.AddClassSubmitted(1)
	m.AddClassSubmitted(2)
	m.AddClassShed(0)
	m.AddBatchDequeue(3)
	m.AddBatchDequeue(1)
	m.AddPark()
	m.AddPark()
	m.AddClaim()

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf, "bnb"); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden file (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWritePrometheusShape checks structural invariants independent of the
// golden bytes: cumulative buckets are monotone, +Inf equals _count, and the
// nil receiver renders an all-zero exposition.
func TestWritePrometheusShape(t *testing.T) {
	var m Metrics
	for _, d := range []time.Duration{time.Nanosecond, 5 * time.Microsecond, time.Millisecond, 30 * time.Millisecond} {
		m.ObserveRoute(8, d, nil)
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "bnb_routes_total 4") {
		t.Fatalf("empty namespace did not default to bnb:\n%s", out)
	}
	last := int64(-1)
	bucketLines := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "bnb_route_latency_seconds_bucket") {
			continue
		}
		bucketLines++
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("cumulative bucket decreased: %q after %d", line, last)
		}
		last = v
	}
	if bucketLines != histBuckets+1 {
		t.Fatalf("bucket lines = %d, want %d buckets plus +Inf", bucketLines, histBuckets+1)
	}
	if !strings.Contains(out, `le="+Inf"} 4`) || !strings.Contains(out, "bnb_route_latency_seconds_count 4") {
		t.Fatalf("+Inf bucket or _count does not equal observations:\n%s", out)
	}

	var nilM *Metrics
	buf.Reset()
	if err := nilM.WritePrometheus(&buf, "x"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x_routes_total 0") {
		t.Fatalf("nil metrics exposition missing zero counters:\n%s", buf.String())
	}
}
