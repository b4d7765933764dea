package congest

import (
	"math"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// TestEstimateConductanceMatchesReference: the distributed estimator sweeps
// the same walk distribution as rw.EstimateConductance, so the two estimates
// agree up to the flooding kernels' summation-order rounding, and the run
// consumes CONGEST rounds and messages.
func TestEstimateConductanceMatchesReference(t *testing.T) {
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 128, R: 2, P: 0.25, Q: 0.01}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	const source, steps = 0, 8
	want, err := rw.EstimateConductance(ppm.Graph, source, steps)
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(ppm.Graph, 1)
	got, err := EstimateConductance(nw, source, steps, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("congest estimate %v, reference %v", got, want)
	}
	m := nw.Metrics()
	if m.Rounds < steps || m.Messages == 0 {
		t.Fatalf("estimate consumed rounds=%d messages=%d, want ≥ %d rounds and > 0 messages",
			m.Rounds, m.Messages, steps)
	}
}

// TestEstimateConductanceDepthLimited: a bounded BFS tree restricts the
// sweep to the covered ball; the estimate still comes back finite and
// positive on a connected graph.
func TestEstimateConductanceDepthLimited(t *testing.T) {
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 128, R: 2, P: 0.25, Q: 0.01}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(ppm.Graph, 1)
	phi, err := EstimateConductance(nw, 0, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if phi <= 0 || math.IsInf(phi, 0) || math.IsNaN(phi) {
		t.Fatalf("depth-limited estimate %v not a positive finite conductance", phi)
	}
}

// TestEstimateConductanceRejectsBadInput: argument validation mirrors the
// reference estimator.
func TestEstimateConductanceRejectsBadInput(t *testing.T) {
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 64, R: 2, P: 0.3, Q: 0.02}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork(ppm.Graph, 1)
	if _, err := EstimateConductance(nw, -1, 5, -1); err == nil {
		t.Fatal("negative source accepted")
	}
	if _, err := EstimateConductance(nw, 0, 0, -1); err == nil {
		t.Fatal("zero step budget accepted")
	}
}

// TestEstimateConductanceExactCost pins the estimator's value and its exact
// CONGEST cost — the tree, one round per flood, and one convergecast plus
// broadcast per sweep — as seen by both the network totals and a load
// observer, unbounded with two workers and depth-limited with one.
func TestEstimateConductanceExactCost(t *testing.T) {
	g := gnpGraph(t, 300, 3)
	for _, tc := range []struct {
		depth, workers int
		phi            float64
		want           Metrics
	}{
		{depth: -1, workers: 2, phi: 0.49232585596221962, want: Metrics{Rounds: 61, Messages: 42786}},
		{depth: 2, workers: 1, phi: 0.52326602282704127, want: Metrics{Rounds: 43, Messages: 35096}},
	} {
		nw := NewNetwork(g, tc.workers)
		var tally loadTally
		nw.SetLoadObserver(tally.observe)
		phi, err := EstimateConductance(nw, 7, 9, tc.depth)
		if err != nil {
			t.Fatal(err)
		}
		if phi != tc.phi {
			t.Fatalf("depth %d: φ = %.17g, want %.17g", tc.depth, phi, tc.phi)
		}
		if nw.Metrics() != tc.want {
			t.Fatalf("depth %d: cost %+v, want %+v", tc.depth, nw.Metrics(), tc.want)
		}
		if tally.rounds != tc.want.Rounds || tally.words != tc.want.Messages {
			t.Fatalf("depth %d: observer saw %d rounds / %d words, want %d / %d",
				tc.depth, tally.rounds, tally.words, tc.want.Rounds, tc.want.Messages)
		}
	}
}
