package rw

import (
	"math"
	"testing"
	"testing/quick"

	"cdrw/internal/gen"
	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

func cycleGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(i, (i+1)%n)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func completeGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewPointDist(t *testing.T) {
	d, err := NewPointDist(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Sum() != 1 || d[2] != 1 {
		t.Fatalf("point dist = %v", d)
	}
	if _, err := NewPointDist(5, 5); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := NewPointDist(5, -1); err == nil {
		t.Fatal("negative source accepted")
	}
}

func TestStepConservesMass(t *testing.T) {
	g := cycleGraph(t, 7)
	d, err := NewPointDist(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := make(Dist, 7)
	for i := 0; i < 20; i++ {
		d, next = Step(g, d, next), d
		if math.Abs(d.Sum()-1) > 1e-12 {
			t.Fatalf("mass %v after %d steps", d.Sum(), i+1)
		}
	}
}

func TestStepOnCycle(t *testing.T) {
	g := cycleGraph(t, 5)
	d, err := NewPointDist(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := make(Dist, 5)
	d = Step(g, d, next)
	if d[1] != 0.5 || d[4] != 0.5 || d[0] != 0 {
		t.Fatalf("after one step on C5 from 0: %v", d)
	}
}

func TestStepIsolatedVertexKeepsMass(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := Dist{0, 0, 1}
	next := make(Dist, 3)
	d = Step(g, d, next)
	if d[2] != 1 {
		t.Fatalf("isolated vertex lost mass: %v", d)
	}
}

func TestWalkMatchesIteratedStep(t *testing.T) {
	g := completeGraph(t, 6)
	d, err := Walk(g, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewPointDist(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := make(Dist, 6)
	for i := 0; i < 4; i++ {
		e, next = Step(g, e, next), e
	}
	if d.L1(e) > 1e-15 {
		t.Fatalf("Walk and iterated Step disagree: %v vs %v", d, e)
	}
}

func TestStationary(t *testing.T) {
	// Star: centre degree 4, leaves degree 1, volume 8.
	b := graph.NewBuilder(5)
	for i := 1; i < 5; i++ {
		b.AddEdge(0, i)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi := Stationary(g)
	if pi[0] != 0.5 {
		t.Fatalf("pi(centre) = %v, want 0.5", pi[0])
	}
	for v := 1; v < 5; v++ {
		if pi[v] != 0.125 {
			t.Fatalf("pi(leaf %d) = %v, want 0.125", v, pi[v])
		}
	}
	if math.Abs(pi.Sum()-1) > 1e-12 {
		t.Fatalf("stationary mass = %v", pi.Sum())
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	g := completeGraph(t, 8)
	pi := Stationary(g)
	next := make(Dist, 8)
	stepped := Step(g, pi, next)
	if stepped.L1(pi) > 1e-12 {
		t.Fatalf("stationary distribution moved by %v", stepped.L1(pi))
	}
}

func TestStationaryEdgeless(t *testing.T) {
	b := graph.NewBuilder(4)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pi := Stationary(g)
	for _, p := range pi {
		if p != 0.25 {
			t.Fatalf("edgeless stationary = %v, want uniform", pi)
		}
	}
}

func TestRestrict(t *testing.T) {
	d := Dist{0.25, 0.25, 0.25, 0.25}
	r := d.Restrict([]int{1, 3})
	want := Dist{0, 0.25, 0, 0.25}
	if r.L1(want) > 0 {
		t.Fatalf("Restrict = %v, want %v", r, want)
	}
	// Original untouched.
	if d[0] != 0.25 {
		t.Fatal("Restrict mutated its receiver")
	}
}

func TestSupport(t *testing.T) {
	d := Dist{0, 0.5, 0, 0.5}
	sup := d.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 3 {
		t.Fatalf("support = %v", sup)
	}
}

func TestL1Properties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(20)
		a := make(Dist, n)
		b := make(Dist, n)
		for i := 0; i < n; i++ {
			a[i] = r.Float64()
			b[i] = r.Float64()
		}
		// Symmetry, non-negativity, identity.
		return a.L1(b) == b.L1(a) && a.L1(b) >= 0 && a.L1(a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMixingTimeComplete(t *testing.T) {
	g := completeGraph(t, 10)
	tm, err := MixingTime(g, 0, 0.01, 100)
	if err != nil {
		t.Fatal(err)
	}
	// K10 mixes essentially in a couple of steps.
	if tm > 5 {
		t.Fatalf("K10 mixing time %d, want <=5", tm)
	}
}

func TestMixingTimeBipartiteNeverMixes(t *testing.T) {
	// Even cycle is bipartite: the non-lazy walk oscillates forever.
	g := cycleGraph(t, 8)
	if _, err := MixingTime(g, 0, 0.01, 200); err == nil {
		t.Fatal("bipartite graph reported as mixing")
	}
}

func TestMixingTimeGnpLogarithmic(t *testing.T) {
	n := 1 << 10
	p := 2 * gen.Log2(n) / float64(n)
	g, err := gen.Gnp(n, p, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := MixingTime(g, 0, 0.1, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Expander: mixing time O(log n). Allow a generous constant.
	if tm > 60 {
		t.Fatalf("Gnp mixing time %d looks super-logarithmic (n=%d)", tm, n)
	}
}

func TestSecondEigenvalueCompleteGraph(t *testing.T) {
	// K_n has λ₂ = 1/(n−1) in absolute value.
	g := completeGraph(t, 11)
	got := SecondEigenvalue(g, 200)
	want := 0.1
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("λ₂(K11) = %v, want ~%v", got, want)
	}
}

func TestSecondEigenvalueCycle(t *testing.T) {
	// Odd cycle C_n (not bipartite) has transition-matrix eigenvalues
	// cos(2πk/n); the largest non-trivial absolute value is |−cos(π/n)|,
	// attained near the bipartite end of the spectrum. Even cycles are
	// bipartite with eigenvalue −1, so |λ₂| = 1 there.
	n := 9
	g := cycleGraph(t, n)
	got := SecondEigenvalue(g, 3000)
	want := math.Cos(math.Pi / float64(n))
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("λ₂(C%d) = %v, want ~%v", n, got, want)
	}
}

func TestSecondEigenvalueGnpBound(t *testing.T) {
	// Equation (2): for a random d-regular-ish graph λ₂ ≈ 1/√d + o(1).
	n := 1 << 10
	p := 2 * gen.Log2(n) * gen.Log2(n) / float64(n) // dense enough to concentrate
	g, err := gen.Gnp(n, p, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	d := g.AverageDegree()
	got := SecondEigenvalue(g, 60)
	bound := 1/math.Sqrt(d) + 0.15
	if got > bound {
		t.Fatalf("λ₂ = %v exceeds spectral bound %v (avg degree %v)", got, bound, d)
	}
}

func TestSecondEigenvalueDegenerate(t *testing.T) {
	b := graph.NewBuilder(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := SecondEigenvalue(g, 10); got != 0 {
		t.Fatalf("λ₂ of single vertex = %v, want 0", got)
	}
}
