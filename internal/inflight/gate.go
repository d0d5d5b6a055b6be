// Package inflight counts the calls inside a section of code and lets a
// drain wait for that count to reach zero. The cluster's membership
// snapshots and the plane supervisor's planes each hold one Gate: a route
// enters before it re-checks whether it may still run there, and a
// membership change or a drain marks the section closed, then waits.
package inflight

import (
	"context"
	"sync"
	"sync/atomic"
)

// waiting is the bit Wait sets in the count while a drain is parked; the
// Exit that brings the count to zero with it set wakes the drain.
const waiting = 1 << 62

// Gate counts the calls inside a section. Enter and Exit are one atomic add
// each; Wait blocks until the count reaches zero without polling. The zero
// value is an empty gate, ready to use.
type Gate struct {
	n    atomic.Int64  // calls inside, plus the waiting bit
	mu   sync.Mutex    // guards zero and the setting and clearing of the bit
	zero chan struct{} // closed when the count reaches zero under a drain
}

// Enter counts one call into the section.
func (g *Gate) Enter() { g.n.Add(1) }

// Exit counts one call out of the section, waking the drains when it was
// the last one.
func (g *Gate) Exit() {
	if g.n.Add(-1) == waiting {
		g.release()
	}
}

// Count returns the number of calls inside the section.
func (g *Gate) Count() int64 { return g.n.Load() &^ waiting }

// Wait blocks until the section is empty, returning nil, or until ctx is
// done, returning ctx's error. An expired Wait leaves the gate usable: a
// later Wait waits again. A call that enters while Wait runs delays it, so
// a drain stops new calls from staying inside (by a flag they re-check
// after Enter) before it waits.
func (g *Gate) Wait(ctx context.Context) error {
	if g.Count() == 0 {
		return nil
	}
	g.mu.Lock()
	if g.zero == nil {
		g.zero = make(chan struct{})
	}
	zero := g.zero
	for {
		n := g.n.Load()
		if n&waiting != 0 || g.n.CompareAndSwap(n, n|waiting) {
			break
		}
	}
	g.mu.Unlock()
	// The count may have reached zero before the bit was set, when no Exit
	// could see it.
	if g.n.Load() == waiting {
		g.release()
	}
	select {
	case <-zero:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release wakes every parked drain if the section is still empty: an Enter
// between the last Exit and here leaves the bit set for that call's Exit.
func (g *Gate) release() {
	g.mu.Lock()
	if g.n.CompareAndSwap(waiting, 0) {
		close(g.zero)
		g.zero = nil
	}
	g.mu.Unlock()
}
