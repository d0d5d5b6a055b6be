package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/neterr"
	"repro/internal/perm"
)

// testPerms returns a representative permutation set for order m: the
// structured families plus seeded random draws.
func testPerms(t *testing.T, m int) []perm.Perm {
	t.Helper()
	N := 1 << uint(m)
	rng := rand.New(rand.NewSource(1991))
	ps := []perm.Perm{perm.Identity(N), perm.Reversal(N), perm.BitReversal(m), perm.PerfectShuffle(m), perm.BitComplement(m)}
	for i := 0; i < 8; i++ {
		ps = append(ps, perm.Random(N, rng))
	}
	return ps
}

// TestCompileAgreesWithSliced checks that Compile records exactly the
// switch decisions of the bit-sliced reference model, bit for bit, and that
// the wire map is the inverse of the compiled permutation.
func TestCompileAgreesWithSliced(t *testing.T) {
	for m := 1; m <= 4; m++ {
		n, err := New(m, 16)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		for _, p := range testPerms(t, m) {
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d Compile(%v): %v", m, p, err)
			}
			words := make([]Word, len(p))
			for i, d := range p {
				words[i] = Word{Addr: d}
			}
			ref, err := n.RouteSliced(words)
			if err != nil {
				t.Fatalf("m=%d RouteSliced(%v): %v", m, p, err)
			}
			recorded := 0
			for i, stage := range ref.controls {
				for j, col := range stage {
					for k, want := range col {
						if got := pl.Control(i, j, k); got != want {
							t.Fatalf("m=%d perm %v: control (%d,%d,%d) = %v, reference says %v",
								m, p, i, j, k, got, want)
						}
						recorded++
					}
				}
			}
			for i, d := range p {
				if got := pl.wire[d]; got != int32(i) {
					t.Fatalf("m=%d perm %v: wire[%d] = %d, want %d", m, p, d, got, i)
				}
			}
			if pl.SwitchCount() != recorded {
				t.Fatalf("m=%d: plan counts %d switches, reference %d", m, pl.SwitchCount(), recorded)
			}
		}
	}
}

// TestReplayMatchesLiveRoute routes every test permutation both live
// (RouteInto) and via compile→replay and compares word for word, with
// distinct payloads so data movement is fully checked.
func TestReplayMatchesLiveRoute(t *testing.T) {
	for m := 1; m <= 5; m++ {
		n, err := New(m, 16)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		N := n.Inputs()
		for _, p := range testPerms(t, m) {
			src := make([]Word, N)
			for i, d := range p {
				src[i] = Word{Addr: d, Data: uint64(1000 + i)}
			}
			live := make([]Word, N)
			if err := n.RouteInto(live, src); err != nil {
				t.Fatalf("m=%d RouteInto: %v", m, err)
			}
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d Compile: %v", m, err)
			}
			replayed := make([]Word, N)
			if err := n.Replay(pl, replayed, src); err != nil {
				t.Fatalf("m=%d Replay: %v", m, err)
			}
			for j := range live {
				if live[j] != replayed[j] {
					t.Fatalf("m=%d perm %v: output %d live %+v, replay %+v", m, p, j, live[j], replayed[j])
				}
			}
			// ReplayWired drives the bitset image through the real wiring and
			// must agree with the wire-map gather.
			wired, err := n.ReplayWired(pl, src)
			if err != nil {
				t.Fatalf("m=%d ReplayWired: %v", m, err)
			}
			for j := range live {
				if live[j] != wired[j] {
					t.Fatalf("m=%d perm %v: output %d live %+v, wired replay %+v", m, p, j, live[j], wired[j])
				}
			}
		}
	}
}

// TestCompileReplayExhaustive replays every permutation of the m <= 3
// networks against the live route.
func TestCompileReplayExhaustive(t *testing.T) {
	for m := 1; m <= 3; m++ {
		n, err := New(m, 16)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		N := n.Inputs()
		live := make([]Word, N)
		replayed := make([]Word, N)
		src := make([]Word, N)
		perm.ForEach(N, func(p perm.Perm) bool {
			for i, d := range p {
				src[i] = Word{Addr: d, Data: uint64(77 + i)}
			}
			if err := n.RouteInto(live, src); err != nil {
				t.Fatalf("m=%d RouteInto(%v): %v", m, p, err)
			}
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d Compile(%v): %v", m, p, err)
			}
			if err := n.Replay(pl, replayed, src); err != nil {
				t.Fatalf("m=%d Replay(%v): %v", m, p, err)
			}
			for j := range live {
				if live[j] != replayed[j] {
					t.Fatalf("m=%d perm %v: output %d live %+v, replay %+v", m, p, j, live[j], replayed[j])
				}
			}
			return true
		})
	}
}

// TestReplayWiredReadsEveryBit flips each stored switch bit of every
// compiled plan at m <= 3 in turn: ReplayWired must then fail or
// misdeliver, which proves it loads every column from the plan instead of
// trusting the splitters — the property the rollout pre-warm check relies
// on.
func TestReplayWiredReadsEveryBit(t *testing.T) {
	for m := 1; m <= 3; m++ {
		n, err := New(m, 0)
		if err != nil {
			t.Fatalf("New(%d): %v", m, err)
		}
		N := n.Inputs()
		src := make([]Word, N)
		perm.ForEach(N, func(p perm.Perm) bool {
			for i, d := range p {
				src[i] = Word{Addr: d, Data: uint64(i)}
			}
			pl, err := n.Compile(p)
			if err != nil {
				t.Fatalf("m=%d Compile(%v): %v", m, p, err)
			}
			for c, col := range pl.cols {
				for k := 0; k < N/2; k++ {
					col[k>>6] ^= 1 << uint(k&63)
					out, err := n.ReplayWired(pl, src)
					col[k>>6] ^= 1 << uint(k&63)
					if err == nil && Delivered(out) {
						t.Fatalf("m=%d perm %v: flipping switch %d of column %d went unnoticed", m, p, k, c)
					}
				}
			}
			return true
		})
	}
}

// TestReplayInPlace replays with dst aliasing src.
func TestReplayInPlace(t *testing.T) {
	n, err := New(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := perm.BitReversal(4)
	pl, err := n.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]Word, n.Inputs())
	for i, d := range p {
		words[i] = Word{Addr: d, Data: uint64(i)}
	}
	if err := n.Replay(pl, words, words); err != nil {
		t.Fatalf("in-place Replay: %v", err)
	}
	if !Delivered(words) {
		t.Fatalf("in-place Replay misdelivered: %v", words)
	}
}

// TestPlanErrors covers every refusal of the plan API.
func TestPlanErrors(t *testing.T) {
	n, err := New(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	N := n.Inputs()
	if _, err := n.Compile(perm.Identity(N - 1)); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("Compile(short) = %v, want ErrBadSize", err)
	}
	if _, err := n.Compile(perm.Perm{0, 0, 1, 2, 3, 4, 5, 6}); !errors.Is(err, neterr.ErrNotPermutation) {
		t.Fatalf("Compile(dup) = %v, want ErrNotPermutation", err)
	}
	pl, err := n.Compile(perm.Reversal(N))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]Word, N)
	src := make([]Word, N)
	for i, d := range perm.Reversal(N) {
		src[i] = Word{Addr: d}
	}
	if err := n.Replay(nil, dst, src); err == nil {
		t.Fatal("Replay(nil plan) succeeded")
	}
	if err := n.Replay(pl, dst, src[:N-1]); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("Replay(short src) = %v, want ErrBadSize", err)
	}
	if err := n.Replay(pl, dst[:N-1], src); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("Replay(short dst) = %v, want ErrBadSize", err)
	}
	// A batch for a different permutation must be refused, not misdelivered.
	other := make([]Word, N)
	for i, d := range perm.Identity(N) {
		other[i] = Word{Addr: d}
	}
	if err := n.Replay(pl, dst, other); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("Replay(mismatched batch) = %v, want ErrPlanMismatch", err)
	}
	// A plan from a different order must be refused everywhere.
	n2, err := New(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := n2.Compile(perm.Identity(n2.Inputs()))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Replay(pl2, dst, src); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("Replay(foreign plan) = %v, want ErrPlanMismatch", err)
	}
	if _, err := n.ReplayWired(pl2, src); !errors.Is(err, neterr.ErrPlanMismatch) {
		t.Fatalf("ReplayWired(foreign plan) = %v, want ErrPlanMismatch", err)
	}
	if _, err := n.ReplayWired(nil, src); err == nil {
		t.Fatal("ReplayWired(nil plan) succeeded")
	}
	if _, err := n.ReplayWired(pl, src[:N-1]); !errors.Is(err, neterr.ErrBadSize) {
		t.Fatalf("ReplayWired(short) = %v, want ErrBadSize", err)
	}
	// ReplayWired runs the routing kernel, so its words must carry a
	// permutation.
	if _, err := n.ReplayWired(pl, make([]Word, N)); !errors.Is(err, neterr.ErrNotPermutation) {
		t.Fatalf("ReplayWired(non-permutation) = %v, want ErrNotPermutation", err)
	}
	// Accessors.
	if pl.M() != 3 || pl.Inputs() != N {
		t.Fatalf("plan reports M=%d Inputs=%d", pl.M(), pl.Inputs())
	}
	got := pl.Perm()
	if !got.Equal(perm.Reversal(N)) {
		t.Fatalf("plan.Perm() = %v", got)
	}
	got[0] = 99 // must be a copy
	if pl.p[0] == 99 {
		t.Fatal("plan.Perm() aliases the plan's permutation")
	}
}
