//go:build race

package core

// raceEnabled reports whether this binary was built with the race detector,
// whose instrumentation allocates, so the allocation pin skips under it.
const raceEnabled = true
