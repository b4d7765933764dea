package core

import (
	"context"
	"slices"
	"testing"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// reverifyFullLadder is the full-ladder re-check: the whole candidate-size
// sweep at the frozen step, then the seed-inserted comparison. It is the
// oracle the ladder-suffix ReverifyCommunity must agree with on every input. It also reports whether the full sweep's set left the
// seed out and whether the walk was on its sparse kernel at the frozen step,
// so the equivalence test can prove it covered both cases.
func reverifyFullLadder(t *testing.T, d *Detector, s int, community []int, frozenAt int) (ok, seedless, sparse bool) {
	t.Helper()
	ctx := context.Background()
	if frozenAt < 1 || frozenAt > d.cfg.maxLen || len(community) == 0 {
		return false, false, false
	}
	cfg := d.beginRun(ctx)
	defer d.endRun()
	eng := d.walkEngine()
	if err := eng.Reset(s); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < frozenAt; l++ {
		eng.Step()
	}
	cur, err := cfg.sweep(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Found() {
		return false, false, eng.Sparse()
	}
	_, hasSeed := slices.BinarySearch(cur.Vertices, s)
	want := withSeedInto(nil, cur.Vertices, s)
	return slices.Equal(want, community), !hasSeed, eng.Sparse()
}

// equivDeltas returns a single-edge and a multi-edge delta of g, each
// touching the community so that its re-check is actually exercised.
func equivDeltas(g *graph.Graph, community []int, r *rng.RNG) [][2][]graph.Edge {
	pick := func() int { return community[r.Intn(len(community))] }
	fresh := func(list []graph.Edge, e graph.Edge) bool {
		for _, x := range list {
			if (x.U == e.U && x.V == e.V) || (x.U == e.V && x.V == e.U) {
				return false
			}
		}
		return true
	}
	var adds, dels []graph.Edge
	for len(adds) < 3 {
		e := graph.Edge{U: pick(), V: r.Intn(g.NumVertices())}
		if e.U != e.V && !g.HasEdge(e.U, e.V) && fresh(adds, e) {
			adds = append(adds, e)
		}
	}
	for len(dels) < 2 {
		u := pick()
		if nb := g.Neighbors(u); len(nb) > 0 {
			if e := (graph.Edge{U: u, V: int(nb[r.Intn(len(nb))])}); fresh(dels, e) {
				dels = append(dels, e)
			}
		}
	}
	return [][2][]graph.Edge{{adds[:1], nil}, {adds, dels}}
}

// TestReverifyLadderSuffixMatchesFullLadder: the pruned ReverifyCommunity,
// which sweeps only the ladder sizes ≥ |C|−1, returns exactly the full-ladder
// oracle's answer — for every seed of a set on a hot-shaped graph and on a
// sparse-regime graph, on the unmutated graph and after single- and
// multi-edge deltas, on the engine sweep and WithDenseSweep, under
// growth/threshold overrides, for truncated, extended and seed-dropped
// communities, and for neighbouring and out-of-range frozen steps.
func TestReverifyLadderSuffixMatchesFullLadder(t *testing.T) {
	hot, err := gen.NewPPM(gen.PPMConfig{N: 2048, R: 4, P: 0.04, Q: 0.001}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name  string
		ppm   *gen.PPM
		seeds []int
	}{
		{"hot", hot, []int{0, 511, 600, 1300, 1777, 2047}},
		{"sparse", ppmGraph(t, 32, 64, 2, 0.05, 5), []int{0, 33, 700, 1500, 2047}},
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"engine", nil},
		{"dense", []Option{WithDenseSweep()}},
		{"growth", []Option{WithGrowthFactor(1.2)}},
		{"threshold", []Option{WithMixingThreshold(0.3)}},
	}
	ctx := context.Background()
	var cases, agreeTrue, seedless, sparse int
	check := func(label string, d *Detector, s int, community []int, frozenAt int) {
		t.Helper()
		got, err := d.ReverifyCommunity(ctx, s, community, frozenAt)
		if err != nil {
			t.Fatal(err)
		}
		want, noSeed, sp := reverifyFullLadder(t, d, s, community, frozenAt)
		if got != want {
			t.Fatalf("%s: seed %d frozenAt %d |C|=%d: pruned=%v full-ladder=%v", label, s, frozenAt, len(community), got, want)
		}
		cases++
		if want {
			agreeTrue++
			if noSeed {
				seedless++
			}
		}
		if sp {
			sparse++
		}
	}
	for _, gc := range graphs {
		g := gc.ppm.Graph
		delta := gc.ppm.Config.ExpectedConductance()
		r := rng.New(uint64(len(gc.name)))
		for _, v := range variants {
			opts := append([]Option{WithDelta(delta)}, v.opts...)
			d, err := NewDetector(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range gc.seeds {
				community, stats, err := d.DetectCommunity(ctx, s)
				if err != nil {
					t.Fatal(err)
				}
				community = slices.Clone(community)
				label := gc.name + "/" + v.name
				check(label, d, s, community, stats.FrozenAt)
				if v.name != "engine" {
					continue
				}
				// Community and frozen-step perturbations on the detection
				// graph: truncated, extended by an outsider, the seed
				// removed, neighbouring steps, and both out-of-range steps.
				check(label+"/truncated", d, s, community[:len(community)-1], stats.FrozenAt)
				outsider := 0
				for slices.Contains(community, outsider) {
					outsider++
				}
				if outsider < g.NumVertices() {
					ext := slices.Clone(community)
					ext = append(ext, outsider)
					slices.Sort(ext)
					check(label+"/extended", d, s, ext, stats.FrozenAt)
				}
				if i, found := slices.BinarySearch(community, s); found && len(community) > 1 {
					check(label+"/no-seed", d, s, slices.Delete(slices.Clone(community), i, i+1), stats.FrozenAt)
				}
				for _, fa := range []int{stats.FrozenAt - 1, stats.FrozenAt + 1, 0, d.cfg.maxLen + 1} {
					check(label+"/frozen-step", d, s, community, fa)
				}
				for _, dl := range equivDeltas(g, community, r) {
					mutated, err := g.ApplyDelta(dl[0], dl[1])
					if err != nil {
						t.Fatal(err)
					}
					dm, err := NewDetector(mutated, opts...)
					if err != nil {
						t.Fatal(err)
					}
					check(label+"/delta", dm, s, community, stats.FrozenAt)
					check(label+"/delta-truncated", dm, s, community[:len(community)-1], stats.FrozenAt)
				}
			}
		}
	}
	t.Logf("%d cases: %d re-verified, %d with the seed outside the mixing set, %d on the sparse kernel",
		cases, agreeTrue, seedless, sparse)
	if agreeTrue == 0 || agreeTrue == cases {
		t.Fatalf("degenerate coverage: %d of %d cases re-verified", agreeTrue, cases)
	}
	if seedless == 0 {
		t.Fatal("no case re-verified a community whose mixing set left the seed out (the |C|-1 case)")
	}
	if sparse == 0 {
		t.Fatal("no case re-checked on the sparse sweep path")
	}
}
