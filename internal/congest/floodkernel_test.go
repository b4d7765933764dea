package congest

import (
	"testing"

	"cdrw/internal/graph"
	"cdrw/internal/rng"
	"cdrw/internal/rw"
)

// raggedGraph builds a random graph with isolated vertices, hubs and leaves,
// so the flood kernels see every degree regime at once.
func raggedGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewDedupBuilder(n)
	for i := 0; i < 3*n; i++ {
		u, v := r.Intn(n), r.Intn(n)
		// Leave the top eighth of the id space mostly isolated.
		if u != v && (u < 7*n/8 || r.Intn(4) == 0) {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// floodWalks advances the walks by one shared flood round through
// batchFlood, bracketed the way detectBatch brackets it.
func floodWalks(nw *Network, walks ...*batchWalk) {
	nw.beginBatch(len(walks))
	nw.beginPhase()
	batchFlood(nw, walks, nw.degInvTable())
	nw.endPhase()
	nw.endBatch()
}

// TestFloodStepMatchesReference: the blocked flood kernel, batchFlood,
// evolves distributions bit-identical to the reference kernel — same floats,
// same message and round accounting — for one walk and for three walks
// sharing rounds, sequentially and under the tiled parallel executor, across
// graphs with isolated vertices. A walk started on an isolated vertex keeps
// all of its mass there.
func TestFloodStepMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := raggedGraph(t, 512, uint64(workers))
		n := g.NumVertices()
		iso := -1
		for v := n - 1; v >= 0 && iso < 0; v-- {
			if g.Degree(v) == 0 {
				iso = v
			}
		}
		if iso < 0 {
			t.Fatal("ragged graph has no isolated vertex")
		}
		for _, sources := range [][]int{{3}, {3, 200, iso}} {
			blocked := NewNetwork(g, workers)
			walks := make([]*batchWalk, len(sources))
			refs := make([]*Network, len(sources))
			ps := make([]rw.Dist, len(sources))
			nexts := make([]rw.Dist, len(sources))
			for i, s := range sources {
				walks[i] = newBatchWalk(n, s)
				refs[i] = NewNetwork(g, workers)
				ps[i], nexts[i] = make(rw.Dist, n), make(rw.Dist, n)
				ps[i][s] = 1
			}
			degInv := blocked.degInvTable()

			for step := 1; step <= 12; step++ {
				floodWalks(blocked, walks...)
				for i, w := range walks {
					refs[i].floodStepReference(ps[i], nexts[i], degInv)
					ps[i], nexts[i] = nexts[i], ps[i]
					for v := range w.p {
						if w.p[v] != ps[i][v] {
							t.Fatalf("workers=%d walks=%d step %d walk %d vertex %d: blocked %g != reference %g",
								workers, len(walks), step, i, v, w.p[v], ps[i][v])
						}
					}
				}
			}
			var want Metrics
			for _, ref := range refs {
				if ref.Metrics().Rounds != 12 {
					t.Fatalf("reference took %d rounds for 12 steps", ref.Metrics().Rounds)
				}
				want.Messages += ref.Metrics().Messages
			}
			want.Rounds = 12 // the walks share every round
			if last := walks[len(walks)-1]; last.seed == iso && last.p[iso] != 1 {
				t.Fatalf("workers=%d: isolated source kept mass %g, want 1", workers, last.p[iso])
			}
			if got := blocked.Metrics(); got != want {
				t.Fatalf("workers=%d walks=%d: blocked accounting %+v != reference %+v",
					workers, len(walks), got, want)
			}
		}
	}
}

// TestNetworkSharedIndexRouting: a network built over a shared bundle reads
// the bundle's tables instead of building private copies, and detection
// results do not change.
func TestNetworkSharedIndexRouting(t *testing.T) {
	g := gnpGraph(t, 256, 9)
	ix := rw.NewSharedIndex(g).Warm()
	shared := NewNetworkWithIndex(g, 1, ix)
	if shared.degreeIndex() != ix.Degree() {
		t.Fatal("network built a private degree index despite the shared bundle")
	}
	if &shared.degInvTable()[0] != &ix.DegInv()[0] {
		t.Fatal("network built a private degInv table despite the shared bundle")
	}

	cfg := DefaultConfig(g.NumVertices())
	cfg.Seed = 11
	want, wantStats, err := DetectCommunity(NewNetwork(g, 1), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := DetectCommunity(NewNetworkWithIndex(g, 1, ix), 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || gotStats != wantStats {
		t.Fatalf("shared-index detection diverged: %d vertices %+v vs %d vertices %+v",
			len(got), gotStats, len(want), wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("community vertex %d: shared %d != private %d", i, got[i], want[i])
		}
	}
}
