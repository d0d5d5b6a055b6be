package plane

// Hedged routing: the tail-tolerance half of the redundancy story. A plane
// that answers correctly at 50x latency defeats functional health checking —
// probes pass, verification passes, only time is lost. With hedging enabled
// the supervisor races the tail instead of waiting it out: the primary
// attempt gets a head start of the hedge delay (derived from the fleet's
// latency EWMAs), then the request is re-issued on the next healthy
// plane and the first response wins. Losers are abandoned safely: attempts
// route into pooled scratch buffers against a private copy of src, a CAS
// claim picks exactly one winner to copy into the caller's dst, and a
// buffered result channel lets stragglers finish and park their buffers
// without anyone waiting on them — no goroutine leaks, no double delivery,
// and the caller owns dst/src again the moment the winner lands.
//
// The same latency EWMAs feed slow-plane detection (see observeLatency in
// plane.go): chronically slow planes drain into quarantine through the
// existing Suspect machinery, and the readmission probe is itself timed so
// a still-slow plane cannot rejoin before its fault heals.

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// hedgeAutoFactor scales the fastest healthy plane's latency EWMA into the
// auto hedge delay: fire the hedge around the tail, not the median.
const hedgeAutoFactor = 4

// hedgeYield, when non-nil, is invoked by the hedge collector after the
// primary attempt launches and before the first result is awaited — the
// preemption point the deterministic hedge-race schedules park a request
// at. Production leaves it nil.
var hedgeYield func()

// hedgeResult carries one attempt's outcome back to the collector.
type hedgeResult struct {
	// idx indexes the eligible-plane slice of this hedge.
	idx int
	// buf is non-nil only on the winning attempt: the routed output, to be
	// copied into the caller's dst and pooled.
	buf []core.Word
	// err is the attempt's routing error; nil on the winner and on losers
	// that routed clean after the claim was taken.
	err error
}

// getBuf and putBuf pool the hedge scratch buffers (per-attempt outputs and
// the shared src copy), so steady-state hedging allocates nothing per
// request beyond the attempt goroutines.
func (s *Supervisor) getBuf() []core.Word {
	if b, ok := s.bufPool.Get().(*[]core.Word); ok {
		return *b
	}
	return make([]core.Word, s.n)
}

func (s *Supervisor) putBuf(b []core.Word) { s.bufPool.Put(&b) }

// hedgeDelay resolves this request's hedge delay: hedgeAutoFactor times
// the fastest eligible plane's latency EWMA. Returns 0 when the fleet is
// too cold to derive a delay; the caller then serves sequentially.
func (s *Supervisor) hedgeDelay(elig []*planeState) time.Duration {
	var best int64
	for _, p := range elig {
		if v := p.latEwma.Load(); v > 0 && (best == 0 || v < best) {
			best = v
		}
	}
	return time.Duration(hedgeAutoFactor * best)
}

// routeHedged serves one request first-response-wins over the healthy
// planes. It reports whether it settled the request, with the request's
// outcome. Unsettled, it returns nil when it did not hedge at all (fewer
// than two eligible planes, or no derivable delay), and otherwise the last
// failure of its healthy attempts; the caller's cascade then resumes from
// the healthy or the suspect planes. Plane failures fail over to further
// planes immediately (without waiting for the timer), and the timer itself
// fires at most one hedge. fp and hasFP are the caller's lazily computed
// request fingerprint.
func (s *Supervisor) routeHedged(planes []*planeState, start int, dst, src []core.Word, sp *trace.Span, fp *uint64, hasFP *bool) (settled bool, err error) {
	k := len(planes)
	elig := make([]*planeState, 0, k)
	for off := 0; off < k; off++ {
		p := planes[(start+off)%k]
		if State(p.state.Load()) == Healthy {
			elig = append(elig, p)
		}
	}
	if len(elig) < 2 {
		return false, nil
	}
	delay := s.hedgeDelay(elig)
	if delay <= 0 {
		return false, nil
	}

	// Attempts never touch the caller's buffers: they race into pooled
	// scratch against a private src copy, so a loser still in flight after
	// this function returns reads and writes only hedge-owned memory. refs
	// counts the collector plus every launched attempt; the last one out
	// returns the src copy to the pool.
	srcCopy := s.getBuf()
	copy(srcCopy, src)
	var refs atomic.Int64
	refs.Store(1)
	defer func() {
		if refs.Add(-1) == 0 {
			s.putBuf(srcCopy)
		}
	}()

	var claimed atomic.Bool
	results := make(chan hedgeResult, len(elig))
	launch := func(idx int) {
		p := elig[idx]
		refs.Add(1)
		sp.AddAttempt()
		go func() {
			defer func() {
				if refs.Add(-1) == 0 {
					s.putBuf(srcCopy)
				}
			}()
			buf := s.getBuf()
			err := s.routeOn(p, buf, srcCopy, nil)
			if err == nil && claimed.CompareAndSwap(false, true) {
				results <- hedgeResult{idx: idx, buf: buf}
				return
			}
			s.putBuf(buf)
			results <- hedgeResult{idx: idx, err: err}
		}()
	}

	timer := time.NewTimer(delay)
	defer timer.Stop()
	next := 1      // next eligible plane to launch
	pending := 1   // launched attempts not yet reported
	hedgeIdx := -1 // index launched by the hedge timer, for the win counter
	var lastErr error
	launch(0)
	if hedgeYield != nil {
		hedgeYield()
	}
	for pending > 0 {
		select {
		case r := <-results:
			pending--
			if r.buf != nil {
				// First response wins: exactly one attempt takes the claim,
				// so exactly one copy lands in the caller's dst.
				copy(dst, r.buf)
				s.putBuf(r.buf)
				sp.SetPlane(elig[r.idx].id)
				if r.idx == hedgeIdx {
					s.m.AddHedgeWin()
				}
				return true, nil
			}
			switch {
			case r.err == nil:
				// Clean loser: it routed fine after the claim was taken; its
				// buffers are already pooled. Nothing to do.
				continue
			case isRequestError(r.err):
				return true, r.err
			default:
				sp.AddFailover()
				lastErr = r.err
				if perr := s.poisonStrike(src, fp, hasFP, elig[r.idx].id, r.err); perr != nil {
					sp.MarkPoisoned()
					return true, perr
				}
			}
			// A failed attempt fails over to the next eligible plane
			// immediately rather than waiting for the timer.
			if next < len(elig) {
				launch(next)
				next++
				pending++
			}
		case <-timer.C:
			if hedgeIdx < 0 && next < len(elig) {
				hedgeIdx = next
				launch(next)
				next++
				pending++
				s.hedges.Add(1)
				s.m.AddHedge()
				sp.AddHedge()
			}
		}
	}
	// Every healthy attempt failed: the caller degrades from here.
	return false, lastErr
}
