//go:build !race

package plancache_test

const raceEnabled = false
