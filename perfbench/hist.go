package main

import (
	"math/bits"
	"time"
)

// subBits sets the latency histogram's resolution: every power-of-two range
// of nanoseconds is split into 2^subBits equal buckets, so one bucket spans
// at most 1/2^subBits (0.78%) of its lower bound, and a percentile read at
// the bucket's midpoint is within 0.4% of a recorded value. The quarter-octave
// buckets of internal/metrics (~12% error) are too coarse for a 10% bound.
const subBits = 7

// histBuckets covers every non-negative int64 nanosecond value: values below
// 2^(subBits+1) get one bucket each, every higher octave 2^subBits buckets.
const histBuckets = (64 - subBits) << subBits

// histogram is a fixed-memory latency histogram. Record never allocates, so
// a client can record every request of a long run without its memory
// growing with the sample count.
type histogram struct {
	counts [histBuckets]uint64
	n      uint64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 1<<(subBits+1) {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (subBits + 1)
	return e<<subBits + int(v>>uint(e))
}

// bucketRange returns the lower bound and width of bucket i, in ns.
func bucketRange(i int) (lo, width int64) {
	if i < 1<<(subBits+1) {
		return int64(i), 1
	}
	e := i>>subBits - 1
	m := int64(i - e<<subBits)
	return m << uint(e), 1 << uint(e)
}

func (h *histogram) record(d time.Duration) {
	h.counts[bucketOf(int64(d))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q <= 1) as the midpoint of the bucket
// holding the ceil(q*n)-th smallest sample; 0 on an empty histogram.
func (h *histogram) quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			lo, w := bucketRange(i)
			return time.Duration(lo + w/2)
		}
	}
	return 0
}
