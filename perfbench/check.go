package main

import (
	"errors"

	bnbnet "repro"
)

var (
	errMisrouted = errors.New("perfbench: a word reached the wrong output or lost its payload")
	errShortOut  = errors.New("perfbench: output has the wrong length")
	errSources   = errors.New("perfbench: sources vector does not invert the permutation")
)

// checkRoute verifies a routed output word by word: the word sent with
// address d must sit at output d, with address d and its payload intact.
// Because the addresses form a permutation, this covers every output.
func checkRoute(out, src []bnbnet.Word) error {
	if len(out) != len(src) {
		return errShortOut
	}
	for _, w := range src {
		if w.Addr < 0 || w.Addr >= len(out) {
			return errMisrouted
		}
		if o := out[w.Addr]; o.Addr != w.Addr || o.Data != w.Data {
			return errMisrouted
		}
	}
	return nil
}

// checkSources verifies a bnbserve route answer: sources[j] names the input
// whose word reached output j, so sources[perm[i]] must be i for every i.
func checkSources(sources []uint32, perm []int) error {
	if len(sources) != len(perm) {
		return errShortOut
	}
	for i, d := range perm {
		if sources[d] != uint32(i) {
			return errSources
		}
	}
	return nil
}
