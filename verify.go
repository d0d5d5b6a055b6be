package bnbnet

import (
	"fmt"

	"repro/internal/check"
)

// VerifyNetwork runs a standardized correctness battery against any
// permutation-network implementation: every routed permutation must deliver
// the word addressed to j on output j with its payload intact. It is
// Verify's sweep (internal/check) over one network, exported so downstream
// implementations of the Network interface can reuse it; the zero
// CheckOptions runs the battery Verify runs, and AdversarialClimbs: -1
// skips the climbs.
func VerifyNetwork(n Network, opts CheckOptions) (CheckReport, error) {
	if n == nil {
		return CheckReport{}, fmt.Errorf("bnbnet: nil network")
	}
	return check.Sweep([]check.Network{n}, opts)
}
