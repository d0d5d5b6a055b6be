package bnbnet

import (
	"fmt"

	"repro/internal/check"
)

// VerifyOptions configures a conformance run over a Network implementation.
// The zero value is usable: it runs the default battery (exhaustive
// enumeration when N <= 8, 50 random trials, all structured families, the
// whole BPC class when m <= 4 and 20 BPC trials above, seed 1).
type VerifyOptions struct {
	// Exhaustive forces or suppresses full N! enumeration; by default it is
	// enabled automatically for N <= 8. Forcing it for N > 8 is an error.
	Exhaustive *bool
	// RandomTrials is the number of uniform random permutations to route
	// (default 50).
	RandomTrials int
	// BPCTrials is the number of random bit-permute-complement permutations
	// to route when m > 4 (default 20); for m <= 4 the whole BPC class is
	// enumerated, and non-power-of-two networks skip BPC.
	BPCTrials int
	// SkipFamilies disables the structured-family sweep.
	SkipFamilies bool
	// Seed drives all sampled workloads (default 1).
	Seed int64
	// MaxFailures caps the recorded failure descriptions (default 5).
	MaxFailures int
}

// VerifyReport summarizes a conformance run.
type VerifyReport struct {
	// Checked is the number of permutations routed.
	Checked int
	// ExhaustiveDone reports whether the full N! enumeration ran.
	ExhaustiveDone bool
	// Failures holds descriptions of the first failing cases (empty on a
	// conforming implementation).
	Failures []string
}

// OK reports whether the battery found no violations.
func (r VerifyReport) OK() bool { return len(r.Failures) == 0 }

// VerifyNetwork runs a standardized correctness battery against any
// permutation-network implementation: every routed permutation must deliver
// the word addressed to j on output j with its payload intact. It is
// Verify's sweep (internal/check) over one network, without the adversarial
// climbs, exported so downstream implementations of the Network interface
// can reuse it.
func VerifyNetwork(n Network, opts VerifyOptions) (VerifyReport, error) {
	if n == nil {
		return VerifyReport{}, fmt.Errorf("bnbnet: nil network")
	}
	if opts.RandomTrials == 0 {
		opts.RandomTrials = 50
	}
	if opts.BPCTrials == 0 {
		opts.BPCTrials = 20
	}
	rep, err := check.Sweep([]check.Network{n}, check.Options{
		Exhaustive:        opts.Exhaustive,
		RandomTrials:      opts.RandomTrials,
		BPCTrials:         opts.BPCTrials,
		AdversarialClimbs: -1,
		SkipFamilies:      opts.SkipFamilies,
		Seed:              opts.Seed,
		MaxFailures:       opts.MaxFailures,
	})
	return VerifyReport{Checked: rep.Checked, ExhaustiveDone: rep.ExhaustiveDone, Failures: rep.Failures}, err
}
