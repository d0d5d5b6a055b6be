//go:build race

package cluster

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation allocates (and makes sync.Pool drop entries), so
// the allocation pins skip under it.
const raceEnabled = true
