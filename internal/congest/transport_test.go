package congest

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/rng"
)

// loopbackTransport is an in-process FloodTransport that evolves the frames
// with its own independent implementation of the flood contract (freeze
// shares p(w)/d(w), accumulate per receiver in CSR neighbour order) — the
// same arithmetic a cluster shard performs over its owned vertices. It
// stands in for a real network in the equivalence tests below.
type loopbackTransport struct {
	nw     *Network
	rounds int
	share  []float64
}

func (t *loopbackTransport) Flood(_ context.Context, frames []FloodFrame) error {
	t.rounds++
	g := t.nw.Graph()
	n := g.NumVertices()
	if cap(t.share) < n {
		t.share = make([]float64, n)
	}
	share := t.share[:n]
	for _, f := range frames {
		for v, mass := range f.P {
			if d := g.Degree(v); d > 0 {
				share[v] = mass * (1 / float64(d))
			} else {
				share[v] = 0
			}
		}
		for u := 0; u < n; u++ {
			sum := 0.0
			for _, w := range g.Neighbors(u) {
				sum += share[w]
			}
			if g.Degree(u) == 0 {
				sum = f.P[u]
			}
			f.Next[u] = sum
		}
	}
	return nil
}

func transportTestGraph(t *testing.T) *gen.PPM {
	t.Helper()
	ppm, err := gen.NewPPM(gen.PPMConfig{N: 400, R: 2, P: 0.08, Q: 0.004}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return ppm
}

// TestFloodTransportCommunityEquivalence pins the transport contract on a
// single seed: DetectCommunity over a transport-backed network is bit-identical
// — community, full stats struct including simulated Metrics — to the
// in-memory run.
func TestFloodTransportCommunityEquivalence(t *testing.T) {
	ppm := transportTestGraph(t)
	cfg := DefaultConfig(ppm.Graph.NumVertices())

	for _, seed := range []int{0, 57, 399} {
		base := NewNetwork(ppm.Graph, 1)
		wantSet, wantStats, err := DetectCommunity(base, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}

		nw := NewNetwork(ppm.Graph, 1)
		tr := &loopbackTransport{nw: nw}
		nw.SetFloodTransport(tr)
		gotSet, gotStats, err := DetectCommunity(nw, seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tr.rounds == 0 {
			t.Fatal("transport never invoked")
		}
		if !reflect.DeepEqual(gotSet, wantSet) {
			t.Fatalf("seed %d: community diverged: %d vs %d vertices", seed, len(gotSet), len(wantSet))
		}
		if gotStats != wantStats {
			t.Fatalf("seed %d: stats diverged:\n got %+v\nwant %+v", seed, gotStats, wantStats)
		}
		if nw.Metrics() != base.Metrics() {
			t.Fatalf("seed %d: network metrics diverged: %+v vs %+v", seed, nw.Metrics(), base.Metrics())
		}
	}
}

// TestFloodTransportBatchEquivalence pins the contract on the batched path:
// DetectBatch and the batched Detect pool loop stay bit-identical when the
// fused flood kernel is replaced by the transport.
func TestFloodTransportBatchEquivalence(t *testing.T) {
	ppm := transportTestGraph(t)
	cfg := DefaultConfig(ppm.Graph.NumVertices())
	seeds := []int{3, 120, 250, 398}

	base := NewNetwork(ppm.Graph, 1)
	want, err := DetectBatch(base, seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	nw := NewNetwork(ppm.Graph, 1)
	tr := &loopbackTransport{nw: nw}
	nw.SetFloodTransport(tr)
	got, err := DetectBatch(nw, seeds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.rounds == 0 {
		t.Fatal("transport never invoked")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batched detections diverged:\n got %+v\nwant %+v", got, want)
	}

	cfg.Batch = 3
	base2 := NewNetwork(ppm.Graph, 1)
	wantRes, err := Detect(base2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw2 := NewNetwork(ppm.Graph, 1)
	nw2.SetFloodTransport(&loopbackTransport{nw: nw2})
	gotRes, err := Detect(nw2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("batched pool results diverged under transport")
	}
}

// failingTransport fails every flood after a set number of successes.
type failingTransport struct {
	ok    *loopbackTransport
	after int
	calls int
}

var errLinkDown = errors.New("link down")

func (t *failingTransport) Flood(ctx context.Context, frames []FloodFrame) error {
	t.calls++
	if t.calls > t.after {
		return errLinkDown
	}
	return t.ok.Flood(ctx, frames)
}

// TestFloodTransportErrorPropagates pins the failure contract: a transport
// error unwinds the detection with that error (wrapped, errors.Is-able) for
// a single seed and for a batch, and the network recovers for the next run
// once the transport is healthy again.
func TestFloodTransportErrorPropagates(t *testing.T) {
	ppm := transportTestGraph(t)
	cfg := DefaultConfig(ppm.Graph.NumVertices())

	nw := NewNetwork(ppm.Graph, 1)
	nw.SetFloodTransport(&failingTransport{ok: &loopbackTransport{nw: nw}, after: 2})
	if _, _, err := DetectCommunity(nw, 0, cfg); !errors.Is(err, errLinkDown) {
		t.Fatalf("single seed: want errLinkDown, got %v", err)
	}

	nw.SetFloodTransport(&failingTransport{ok: &loopbackTransport{nw: nw}, after: 1})
	if _, err := DetectBatch(nw, []int{0, 57}, cfg); !errors.Is(err, errLinkDown) {
		t.Fatalf("batched path: want errLinkDown, got %v", err)
	}

	// Healthy transport again: the sticky error must not leak into new runs.
	nw.SetFloodTransport(&loopbackTransport{nw: nw})
	if _, _, err := DetectCommunity(nw, 0, cfg); err != nil {
		t.Fatalf("recovered run failed: %v", err)
	}
}
