package rw

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// sweepPPM samples a random planted-partition graph in the sparse regime the
// sweep targets (average degree far below n).
func sweepPPM(t testing.TB, seed uint64) *gen.PPM {
	t.Helper()
	r := rng.New(seed)
	cfg := gen.PPMConfig{
		N: 96 + 32*r.Intn(5),
		R: 2 + r.Intn(3),
		P: 0.1 + 0.25*r.Float64(),
		Q: 0.01 * r.Float64(),
	}
	cfg.N -= cfg.N % cfg.R
	ppm, err := gen.NewPPM(cfg, r.Split())
	if err != nil {
		t.Fatalf("PPM(%+v): %v", cfg, err)
	}
	return ppm
}

// support extracts the exact support of p as the sweep expects it: strictly
// ascending vertex ids with p != 0.
func distSupport(p Dist) []int32 {
	var sup []int32
	for v, pv := range p {
		if pv != 0 {
			sup = append(sup, int32(v))
		}
	}
	return sup
}

// requireSweepsAgree asserts the sparse sweep is bit-identical to the dense
// reference on (g, p): same vertices, same float sum, same ladder work.
func requireSweepsAgree(t *testing.T, g *graph.Graph, sw *Sweeper, p Dist, minSize int, opt MixOptions) {
	t.Helper()
	want, err := LargestMixingSetOpt(g, p, minSize, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw.LargestMixingSet(p, distSupport(p), minSize, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Vertices, want.Vertices) {
		t.Fatalf("sparse sweep selected %d vertices, dense %d; sets differ (minSize=%d)",
			got.Size(), want.Size(), minSize)
	}
	if got.Sum != want.Sum {
		t.Fatalf("sparse sum %v != dense sum %v (must be bit-identical)", got.Sum, want.Sum)
	}
	if got.SizesChecked != want.SizesChecked {
		t.Fatalf("sparse checked %d sizes, dense %d", got.SizesChecked, want.SizesChecked)
	}
}

// TestSparseSweepMatchesDenseProperty: along a point-source walk on random
// PPM graphs, the sparse sweep over the engine's frontier returns exactly
// the dense sweep's mixing set at every length — the bit-identity contract
// the detection paths rely on.
func TestSparseSweepMatchesDenseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ppm := sweepPPM(t, seed)
		g := ppm.Graph
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		s := r.Intn(g.NumVertices())
		eng := NewWalkEngine(g)
		eng.SetDenseThreshold(g.NumVertices() + 1) // stay sparse for the whole walk
		if err := eng.Reset(s); err != nil {
			t.Fatal(err)
		}
		sw := NewSweeper(g)
		minSize := 2 + r.Intn(6)
		for l := 0; l < 6; l++ {
			requireSweepsAgree(t, g, sw, eng.Dist(), minSize, MixOptions{})
			eng.Step()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseSweepRandomSupportProperty: the equivalence holds for arbitrary
// sparse vectors, not just walk distributions — random supports with random
// (even unnormalised) masses over random graphs with isolated vertices.
func TestSparseSweepRandomSupportProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 8 + r.Intn(120)
		b := graph.NewDedupBuilder(n)
		for i := 0; i < r.Intn(4*n); i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		p := make(Dist, n)
		for i := 0; i < 1+r.Intn(n); i++ {
			p[r.Intn(n)] = r.Float64()
		}
		sw := NewSweeper(g)
		requireSweepsAgree(t, g, sw, p, 1+r.Intn(4), MixOptions{})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseSweepTieStress: a regular graph with equal masses maximises ties
// — every explicit x value collides with every other, and all implicit
// values collide too, so the (x, id) tie-break decides the whole selection.
// Includes masses engineered to make explicit values collide with the
// implicit d/µ' plateau at some ladder sizes.
func TestSparseSweepTieStress(t *testing.T) {
	r := rng.New(7)
	g, err := gen.RandomRegular(64, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSweeper(g)
	for _, supSize := range []int{1, 3, 9, 20} {
		p := make(Dist, g.NumVertices())
		for i := 0; i < supSize; i++ {
			p[r.Intn(g.NumVertices())] = 1 / float64(supSize)
		}
		requireSweepsAgree(t, g, sw, p, 2, MixOptions{})

		// Explicit value equal to the implicit plateau: at size k, the
		// off-support value is d/µ' = 1/k on a regular graph, and a support
		// vertex with p[v] = 2/k has x = |2/k − 1/k| = 1/k exactly.
		for k := 2; k <= 8; k++ {
			q := make(Dist, g.NumVertices())
			q[5] = 2 / float64(k)
			q[11] = 1 / float64(k) // x = 0 at size k
			requireSweepsAgree(t, g, sw, q, 2, MixOptions{})
		}
	}
}

// TestSparseSweepEdgeless covers the µ' = 0 branch: with no edges the
// off-support statistic degenerates to the uniform target 1/|S|, and the
// sparse sweep must still match the dense reference bit for bit.
func TestSparseSweepEdgeless(t *testing.T) {
	for _, n := range []int{1, 2, 5, 33} {
		g, err := graph.NewBuilder(n).Build()
		if err != nil {
			t.Fatal(err)
		}
		sw := NewSweeper(g)
		// Point mass.
		p := make(Dist, n)
		p[n/2] = 1
		requireSweepsAgree(t, g, sw, p, 1, MixOptions{})
		// Spread mass over a few vertices.
		r := rng.New(uint64(n))
		q := make(Dist, n)
		for i := 0; i < 1+n/3; i++ {
			q[r.Intn(n)] = r.Float64()
		}
		requireSweepsAgree(t, g, sw, q, 1, MixOptions{})
	}
	// Semantics spot-check: on an edgeless graph a point mass never mixes
	// (x sums stay ≥ 1−1/|S|+… above the 1/2e bound for |S| ≥ 2), except
	// the trivial |S| = 1 candidate where x_source = 0.
	g, err := graph.NewBuilder(4).Build()
	if err != nil {
		t.Fatal(err)
	}
	p := Dist{1, 0, 0, 0}
	ms, err := NewSweeper(g).LargestMixingSet(p, []int32{0}, 1, MixOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Found() && ms.Size() > 1 {
		t.Fatalf("point mass on an edgeless graph mixed on %d vertices", ms.Size())
	}
}

// TestSparseSweepSupportValidation: malformed supports are rejected rather
// than silently producing a wrong selection.
func TestSparseSweepSupportValidation(t *testing.T) {
	r := rng.New(3)
	g, err := gen.Gnp(16, 0.3, r)
	if err != nil {
		t.Fatal(err)
	}
	p := make(Dist, 16)
	p[3], p[7] = 0.5, 0.5
	sw := NewSweeper(g)
	if _, err := sw.LargestMixingSet(p, []int32{7, 3}, 1, MixOptions{}); err == nil {
		t.Fatal("descending support accepted")
	}
	if _, err := sw.LargestMixingSet(p, []int32{3, 3}, 1, MixOptions{}); err == nil {
		t.Fatal("duplicate support accepted")
	}
	if _, err := sw.LargestMixingSet(p, []int32{3, 99}, 1, MixOptions{}); err == nil {
		t.Fatal("out-of-range support accepted")
	}
	if _, err := sw.LargestMixingSet(make(Dist, 5), nil, 1, MixOptions{}); err == nil {
		t.Fatal("length-mismatched distribution accepted")
	}
}

// TestWalkEngineLargestMixingSetMatchesOpt: the engine-level sweep tracks
// the walk across the sparse→dense kernel switch and agrees with the
// standalone dense reference at every step on both sides of it.
func TestWalkEngineLargestMixingSetMatchesOpt(t *testing.T) {
	ppm := sweepPPM(t, 21)
	g := ppm.Graph
	eng := NewWalkEngine(g)
	eng.SetDenseThreshold(16) // force an early sparse→dense switch
	if err := eng.Reset(1); err != nil {
		t.Fatal(err)
	}
	sawSparse, sawDense := false, false
	for l := 0; l < 8; l++ {
		if eng.Sparse() {
			sawSparse = true
		} else {
			sawDense = true
		}
		want, err := LargestMixingSetOpt(g, eng.Dist(), 4, MixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.LargestMixingSet(4, MixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Vertices, want.Vertices) || got.Sum != want.Sum {
			t.Fatalf("step %d (sparse=%v): engine sweep differs from reference", l, eng.Sparse())
		}
		// A ladder suffix from any bound returns the full answer when its
		// size reaches the bound and nothing otherwise, on both paths,
		// evaluating exactly the ladder entries ≥ the bound.
		ladder := SizeLadderWithGrowth(4, g.NumVertices(), GrowthFactor)
		for _, from := range []int{0, want.Size() - 1, want.Size(), want.Size() + 1, g.NumVertices()} {
			for _, dense := range []bool{false, true} {
				got, err := eng.LargestMixingSetFrom(4, from, dense, MixOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if want.Size() >= from {
					if !reflect.DeepEqual(got.Vertices, want.Vertices) || got.Sum != want.Sum {
						t.Fatalf("step %d from %d dense=%v: suffix sweep differs from the full sweep", l, from, dense)
					}
				} else if got.Found() {
					t.Fatalf("step %d from %d dense=%v: found a set of %d below the bound", l, from, dense, got.Size())
				}
				suffix := 0
				for _, size := range ladder {
					if size >= from {
						suffix++
					}
				}
				if got.SizesChecked != suffix {
					t.Fatalf("step %d from %d: checked %d sizes, want %d", l, from, got.SizesChecked, suffix)
				}
			}
		}
		eng.Step()
	}
	if !sawSparse || !sawDense {
		t.Fatalf("walk never crossed the kernel switch (sparse=%v dense=%v)", sawSparse, sawDense)
	}
}

// TestBatchLargestMixingSetMatchesSolo: the batch engine's per-walk sweep
// (shared degree index) equals a solo engine's sweep for every walk.
func TestBatchLargestMixingSetMatchesSolo(t *testing.T) {
	ppm := sweepPPM(t, 5)
	g := ppm.Graph
	sources := []int{0, 3, g.NumVertices() - 1, 3}
	batch, err := NewBatchWalkEngine(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	solos := make([]*WalkEngine, len(sources))
	for i, s := range sources {
		solos[i] = NewWalkEngine(g)
		if err := solos[i].Reset(s); err != nil {
			t.Fatal(err)
		}
	}
	for l := 0; l < 5; l++ {
		for i := range sources {
			want, err := solos[i].LargestMixingSet(3, MixOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := batch.LargestMixingSet(i, 3, MixOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Vertices, want.Vertices) || got.Sum != want.Sum {
				t.Fatalf("walk %d step %d: batch sweep differs from solo", i, l)
			}
			solos[i].Step()
		}
		batch.Step()
	}
}

// TestSmallestKSumDeterministic: the reported sum is accumulated over the
// selected ids in ascending order — a pure function of the selected set —
// regardless of quickselect's internal permutation. Magnitude-skewed values
// make any other accumulation order produce a different float.
func TestSmallestKSumDeterministic(t *testing.T) {
	x := []float64{1e16, 1, 1, 1, 1e-8, 0.25, 1e16, 3}
	sel, sum := SmallestK(x, 5)
	want := 0.0
	for _, u := range sel {
		want += x[u]
	}
	if sum != want {
		t.Fatalf("sum %v != ascending-id accumulation %v", sum, want)
	}
	if !sort.IntsAreSorted(sel) {
		t.Fatalf("selection %v not ascending", sel)
	}
	// And the same set/sum no matter how the input is permuted into the
	// selection (here: reversed duplicate values still tie-break by id).
	selAgain, sumAgain := SmallestK(x, 5)
	if !reflect.DeepEqual(sel, selAgain) || sum != sumAgain {
		t.Fatal("SmallestK is not deterministic")
	}
}

// TestSweepSortMatchesFullSort: the sparse-aware (score desc, id asc)
// ordering used by the conductance sweep equals a plain comparison sort,
// including zero scores, negative scores, and −inf (isolated vertices).
func TestSweepSortMatchesFullSort(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		score := make([]float64, n)
		for i := range score {
			switch r.Intn(5) {
			case 0:
				score[i] = 0
			case 1:
				score[i] = math.Inf(-1)
			case 2:
				score[i] = -r.Float64()
			default:
				score[i] = r.Float64() * float64(1+r.Intn(3))
			}
		}
		// Candidate lists in both id order (the SweepCut case) and shuffled
		// order (the SweepCutWithin case).
		for trial := 0; trial < 2; trial++ {
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			if trial == 1 {
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			want := append([]int(nil), order...)
			sort.Slice(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if score[a] != score[b] {
					return score[a] > score[b]
				}
				return a < b
			})
			sweepSort(score, order)
			if !reflect.DeepEqual(order, want) {
				t.Logf("seed %d trial %d: order differs", seed, trial)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDegreeIndexInvariants: the index is a permutation sorted by (degree,
// id) with exact prefix sums and a consistent inverse.
func TestDegreeIndexInvariants(t *testing.T) {
	ppm := sweepPPM(t, 11)
	g := ppm.Graph
	idx := NewDegreeIndex(g)
	n := g.NumVertices()
	seen := make([]bool, n)
	var sum int64
	for i, v := range idx.order {
		if seen[v] {
			t.Fatalf("vertex %d appears twice", v)
		}
		seen[v] = true
		if int(idx.pos[v]) != i {
			t.Fatalf("pos[%d]=%d, want %d", v, idx.pos[v], i)
		}
		if int(idx.degs[i]) != g.Degree(int(v)) {
			t.Fatalf("degs[%d]=%d, want %d", i, idx.degs[i], g.Degree(int(v)))
		}
		if i > 0 {
			dPrev, d := idx.degs[i-1], idx.degs[i]
			if d < dPrev || (d == dPrev && idx.order[i] < idx.order[i-1]) {
				t.Fatalf("order not sorted by (degree, id) at %d", i)
			}
		}
		if idx.prefix[i] != sum {
			t.Fatalf("prefix[%d]=%d, want %d", i, idx.prefix[i], sum)
		}
		sum += int64(idx.degs[i])
	}
	if idx.prefix[n] != int64(g.Volume()) {
		t.Fatalf("prefix[n]=%d, want volume %d", idx.prefix[n], g.Volume())
	}
}
