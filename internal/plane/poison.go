package plane

// Poison-request quarantine: a request whose fingerprint triggers hard
// routing failures on multiple *distinct* planes is the request's fault, not
// any plane's — one adversarial arrangement must not walk the fleet, tripping
// a quarantine on every plane it touches. The supervisor fingerprints the
// offered source addresses (core.AddrHash), records each plane-blamed hard
// failure against the fingerprint, and once the strike set spans
// poisonThreshold distinct planes the request is rejected with ErrPoisoned:
// immediately mid-request (stopping the cascade at the threshold) and at
// admission for as long as the entry's TTL keeps it quarantined.
//
// Transient failures (errors.Is ErrTransient) never strike: chaos that heals
// blames the window, not the request, so a 1% chaos soak cannot poison its
// own traffic.

import (
	"sync"
	"sync/atomic"
	"time"
)

const (
	// poisonThreshold is the number of distinct planes a fingerprint must
	// hard-fail on before it is quarantined.
	poisonThreshold = 2
	// poisonTTL is how long a quarantined fingerprint stays rejected (and
	// how long stale strike entries survive) after its last strike.
	poisonTTL = 30 * time.Second
	// poisonMaxEntries bounds the strike table; eviction drops expired
	// entries first, then the least recently struck.
	poisonMaxEntries = 1024
)

// poisonEntry is one fingerprint's strike record.
type poisonEntry struct {
	// planes are the distinct plane ids the fingerprint hard-failed on.
	planes []int
	// poisoned latches once len(planes) reaches the threshold.
	poisoned bool
	// last is the time of the most recent strike, for TTL expiry.
	last time.Time
}

// poisonTable is the supervisor's strike ledger. The mutex is taken only on
// plane-blamed hard failures and on admission checks while the table is
// non-empty; the size atomic lets the hot path skip the lock entirely when
// nothing has ever failed.
type poisonTable struct {
	mu        sync.Mutex
	entries   map[uint64]*poisonEntry
	size      atomic.Int64
	threshold int
	ttl       time.Duration
	max       int
}

func newPoisonTable(threshold int, ttl time.Duration) *poisonTable {
	return &poisonTable{
		entries:   make(map[uint64]*poisonEntry),
		threshold: threshold,
		ttl:       ttl,
		max:       poisonMaxEntries,
	}
}

// isPoisoned reports whether the fingerprint is currently quarantined,
// expiring the entry if its TTL has lapsed.
func (t *poisonTable) isPoisoned(fp uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[fp]
	if e == nil {
		return false
	}
	if time.Since(e.last) > t.ttl {
		delete(t.entries, fp)
		t.size.Store(int64(len(t.entries)))
		return false
	}
	return e.poisoned
}

// strike records a hard failure of fp on planeID. The first return reports
// whether the fingerprint is (now) poisoned; the second whether this strike
// crossed the threshold, so the caller counts each mark exactly once.
func (t *poisonTable) strike(fp uint64, planeID int) (poisoned, became bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[fp]
	if e == nil {
		if len(t.entries) >= t.max {
			t.evictLocked()
		}
		e = &poisonEntry{}
		t.entries[fp] = e
	}
	e.last = time.Now()
	seen := false
	for _, id := range e.planes {
		if id == planeID {
			seen = true
			break
		}
	}
	if !seen {
		e.planes = append(e.planes, planeID)
	}
	if !e.poisoned && len(e.planes) >= t.threshold {
		e.poisoned = true
		became = true
	}
	t.size.Store(int64(len(t.entries)))
	return e.poisoned, became
}

// evictLocked makes room: expired entries go first, then the least recently
// struck one. Called with the mutex held.
func (t *poisonTable) evictLocked() {
	now := time.Now()
	var oldestKey uint64
	var oldestAt time.Time
	found := false
	for k, e := range t.entries {
		if now.Sub(e.last) > t.ttl {
			delete(t.entries, k)
			continue
		}
		if !found || e.last.Before(oldestAt) {
			oldestKey, oldestAt, found = k, e.last, true
		}
	}
	if len(t.entries) >= t.max && found {
		delete(t.entries, oldestKey)
	}
}
