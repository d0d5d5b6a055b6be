package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestHistogramQuantilesOnKnownSamples(t *testing.T) {
	var h histogram
	// 1..10000 µs, each once: the q-quantile is q·10000 µs.
	for v := 1; v <= 10000; v++ {
		h.record(time.Duration(v) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 5000 * time.Microsecond},
		{0.95, 9500 * time.Microsecond},
		{0.99, 9900 * time.Microsecond},
		{1.00, 10000 * time.Microsecond},
	} {
		got := h.quantile(c.q)
		if rel := math.Abs(float64(got-c.want)) / float64(c.want); rel > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%% (off by %.2f%%)", c.q, got, c.want, 100*rel)
		}
	}
	if h.n != 10000 {
		t.Errorf("n = %d, want 10000", h.n)
	}
}

func TestHistogramBucketErrorBelowOnePercent(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := int64(r.ExpFloat64() * float64(time.Millisecond))
		if i%10 == 0 {
			v = r.Int63() // the whole int64 range
		}
		b := bucketOf(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d, outside [0,%d)", v, b, histBuckets)
		}
		lo, w := bucketRange(b)
		if v < lo || v-lo >= w {
			t.Fatalf("value %d outside its bucket [%d,%d)", v, lo, lo+w)
		}
		if v > 0 {
			if rel := math.Abs(float64(lo+w/2-v)) / float64(v); rel > 0.01 {
				t.Fatalf("value %d reads back as %d: %.3f%% error", v, lo+w/2, 100*rel)
			}
		}
	}
}

func TestHistogramSmallValuesExact(t *testing.T) {
	for v := int64(0); v < 256; v++ {
		var h histogram
		h.record(time.Duration(v))
		if got := h.quantile(0.5); got != time.Duration(v) {
			t.Fatalf("%d ns reads back as %v", v, got)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all histogram
	for v := 1; v <= 1000; v++ {
		d := time.Duration(v) * time.Microsecond
		all.record(d)
		if v%2 == 0 {
			a.record(d)
		} else {
			b.record(d)
		}
	}
	a.merge(&b)
	if a != all {
		t.Fatal("merging two halves differs from recording the whole")
	}
	var empty histogram
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram has a median")
	}
}
