package main

import (
	"errors"
	"testing"

	bnbnet "repro"
)

// deliver builds the output a correct network produces for src.
func deliver(src []bnbnet.Word) []bnbnet.Word {
	out := make([]bnbnet.Word, len(src))
	for _, w := range src {
		out[w.Addr] = w
	}
	return out
}

func TestCheckRoute(t *testing.T) {
	req := freshInputs(2, 16).pool[0]
	if err := checkRoute(deliver(req.words), req.words); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}

	// One swapped pair of payloads: addresses still line up.
	out := deliver(req.words)
	out[3].Data, out[9].Data = out[9].Data, out[3].Data
	if err := checkRoute(out, req.words); !errors.Is(err, errMisrouted) {
		t.Errorf("swapped payloads: got %v, want errMisrouted", err)
	}

	// One swapped pair of whole words: the outputs hold the wrong addresses.
	out = deliver(req.words)
	out[3], out[9] = out[9], out[3]
	if err := checkRoute(out, req.words); !errors.Is(err, errMisrouted) {
		t.Errorf("swapped words: got %v, want errMisrouted", err)
	}

	if err := checkRoute(out[:15], req.words); !errors.Is(err, errShortOut) {
		t.Errorf("short output: got %v, want errShortOut", err)
	}
}

func TestCheckSources(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	sources := []uint32{1, 3, 0, 2} // output j received input sources[j]
	if err := checkSources(sources, perm); err != nil {
		t.Fatalf("correct sources rejected: %v", err)
	}
	sources[0], sources[1] = sources[1], sources[0]
	if err := checkSources(sources, perm); !errors.Is(err, errSources) {
		t.Errorf("swapped sources: got %v, want errSources", err)
	}
}
