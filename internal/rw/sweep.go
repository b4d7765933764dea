package rw

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"cdrw/internal/graph"
)

// This file implements the sparse-aware mixing-set sweep. The dense sweep
// (LargestMixingSetOpt) touches all n vertices for every candidate size of
// the ladder, which PR 1 turned into the dominant cost of detection: walk
// stepping is O(support) while the walk is a small ball around its source,
// but the per-step sweep stayed O(n · ladder).
//
// The sparse sweep exploits the closed form of the statistic off the walk's
// support: p(u) = 0 there, so x_u = |0 − d(u)/µ'(S)| = d(u)/µ'(S) — a value
// that depends only on the degree. Off-support vertices therefore form an
// implicit stream that is already sorted under the sweep's (x, id) order by
// (degree, id), for every ladder size at once, because dividing by the
// positive constant µ' preserves the degree order. A DegreeIndex built once
// per engine supplies that stream, its exact integer prefix degree sums, and
// each vertex's position in it; per candidate size the sweep then only has
// to merge the O(support) explicit x-values against the implicit stream:
//
//   - the number of explicit values inside the |S| smallest is found by a
//     quickselect over the support that counts implicit entries below each
//     pivot by binary search — expected O(support) comparisons plus
//     O(log support · log n) index probes, never touching the off-support
//     vertices themselves;
//   - the off-support tail of the canonical sum (see mixingSum) is an
//     integer prefix-degree-sum lookup, O(log n · log support).
//
// One walk step's whole ladder costs O(support · ladder + support · log n)
// instead of O(n · ladder), and the result — set, sum, and the threshold
// decision — is bit-identical to the dense sweep by construction: explicit
// values use the exact XValueAt expression, implicit comparisons use the
// same d/µ' division, and both sweeps fold their selection into the same
// canonical mixingSum.
//
// Exactness caveat, for the record: the implicit stream's (degree, id) order
// stands in for (d·(1/µ'), id) order, which is only guaranteed while
// distinct degrees map to distinct floats. Two degrees d1 < d2 < 2⁵² differ
// relatively by at least 1/d2 ≥ 2⁻⁵², more than one ulp, so the products
// cannot collide for any graph this package can represent.

// DegreeIndex is an immutable per-graph index: all vertices sorted by
// (degree, id) with exact prefix degree sums and the inverse permutation.
// Engines build it once (NewBatchWalkEngine shares one across its walks) and
// every sparse sweep over the graph reuses it.
type DegreeIndex struct {
	order  []int32 // vertices by (degree asc, id asc)
	degs   []int32 // degs[i] = degree(order[i])
	prefix []int64 // prefix[i] = Σ_{j<i} degs[j], exact
	pos    []int32 // pos[v] = position of v in order
}

// NewDegreeIndex builds the index in O(n + maxDegree) by counting sort
// (iterating vertices in id order keeps each degree bucket id-sorted).
func NewDegreeIndex(g *graph.Graph) *DegreeIndex {
	n := g.NumVertices()
	idx := &DegreeIndex{
		order:  make([]int32, n),
		degs:   make([]int32, n),
		prefix: make([]int64, n+1),
		pos:    make([]int32, n),
	}
	maxd := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d > maxd {
			maxd = d
		}
	}
	start := make([]int32, maxd+1)
	for v := 0; v < n; v++ {
		start[g.Degree(v)]++
	}
	total := int32(0)
	for d := 0; d <= maxd; d++ {
		c := start[d]
		start[d] = total
		total += c
	}
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		idx.order[start[d]] = int32(v)
		start[d]++
	}
	for i, v := range idx.order {
		d := g.Degree(int(v))
		idx.degs[i] = int32(d)
		idx.prefix[i+1] = idx.prefix[i] + int64(d)
		idx.pos[v] = int32(i)
	}
	return idx
}

// sweepEntry is one explicit (on-support) value of the sweep: the x
// statistic, the vertex id (the tie-break dimension), and the vertex's slot
// in the support slice (for ascending-id accumulation after selection).
type sweepEntry struct {
	x    float64
	v    int32
	slot int32
}

func entryLess(a, b sweepEntry) bool {
	if a.x != b.x {
		return a.x < b.x
	}
	return a.v < b.v
}

// Sweeper runs largest-mixing-set searches over one graph, with a sparse
// fast path when the distribution's support is known. A Sweeper is not safe
// for concurrent use, but Sweepers of different walks may share one
// DegreeIndex (it is read-only after construction) — that is how
// BatchWalkEngine lets DetectParallel sweep all walks from goroutines.
type Sweeper struct {
	g   *graph.Graph
	idx *DegreeIndex

	// Current-size context (set by evalSize for implicitBefore).
	muPrime float64
	target  float64 // off-support value 1/size on an edgeless graph

	xsup []float64    // explicit x per support slot
	ents []sweepEntry // explicit entries, permuted by selection
	sel  []bool       // per-slot selection marks, cleared after use
	wpos []int32      // support positions in idx.order, ascending
	wdeg []int64      // prefix degree sums over wpos
	out  []int        // result buffer, reused across sweeps

	// Dense-path frontier compaction scratch, reused across sweeps so the
	// dense regime serves allocation-free too: supBuf receives the exact
	// support extracted from p, supBits marks it for the degree-order scan
	// (n/64 bytes — L2-resident at n = 10⁶ — and all-zero between sweeps).
	supBuf  []int32
	supBits []uint64

	// Ladder cache: the candidate sizes depend only on (minSize, growth, n),
	// which are fixed across the steps of a detection loop; recomputing the
	// ladder per sweep was the last steady-state allocation on the sparse
	// serving path.
	ladder       []int
	ladderMin    int
	ladderGrowth float64
	ladderOK     bool
}

// NewSweeper returns a sweeper over g with its own DegreeIndex.
func NewSweeper(g *graph.Graph) *Sweeper {
	return NewSweeperWithIndex(g, NewDegreeIndex(g))
}

// NewSweeperWithIndex returns a sweeper over g reusing a prebuilt index.
func NewSweeperWithIndex(g *graph.Graph, idx *DegreeIndex) *Sweeper {
	return &Sweeper{g: g, idx: idx}
}

// LargestMixingSet finds the largest mixing set of p exactly like
// LargestMixingSetOpt, but in O(support) per ladder size when support — the
// vertices with p(u) ≠ 0, strictly ascending — is given. support == nil
// selects the dense path (reusing the sweeper's buffers, but otherwise
// identical to LargestMixingSetOpt). The two paths are bit-identical: same
// sets, same sums, same threshold decisions.
//
// On both paths the returned Vertices slice aliases sweeper storage: it is
// valid until the sweeper's next sweep and must be copied to be retained
// (the detection loops copy it into their trackers). This is what keeps a
// long-lived Detector's repeat runs allocation-free, in the dense regime as
// well as the sparse one.
func (s *Sweeper) LargestMixingSet(p Dist, support []int32, minSize int, opt MixOptions) (MixingSet, error) {
	return s.largestFrom(p, support, minSize, 0, opt)
}

// largestFrom is LargestMixingSet over only the ladder suffix of sizes ≥
// from (from ≤ minSize sweeps the whole ladder). Every evaluated size keeps
// its full-sweep set, sum and threshold decision, so the result is the full
// sweep's whenever its largest passing size is ≥ from, and not Found
// otherwise; SizesChecked counts only the evaluated suffix.
func (s *Sweeper) largestFrom(p Dist, support []int32, minSize, from int, opt MixOptions) (MixingSet, error) {
	opt = opt.withDefaults()
	n := s.g.NumVertices()
	if len(p) != n {
		return MixingSet{}, fmt.Errorf("rw: distribution has %d entries for %d vertices", len(p), n)
	}
	if support == nil {
		return s.denseSweep(p, minSize, from, opt)
	}
	for i, v := range support {
		if int(v) >= n || v < 0 {
			return MixingSet{}, fmt.Errorf("rw: support vertex %d out of range [0,%d): %w", v, n, graph.ErrVertexOutOfRange)
		}
		if i > 0 && v <= support[i-1] {
			return MixingSet{}, fmt.Errorf("rw: support not strictly ascending at index %d", i)
		}
	}
	s.prepare(support)
	return s.sweepLadder(p, support, minSize, from, opt)
}

// sweepLadder evaluates the candidate-size ladder from its first size ≥ from
// over a prepared support and materialises the largest passing size once at
// the end. Sizes are evaluated independently of each other, so skipping a
// prefix changes no later size's outcome.
func (s *Sweeper) sweepLadder(p Dist, support []int32, minSize, from int, opt MixOptions) (MixingSet, error) {
	ladder := s.sizeLadder(minSize, opt.Growth)
	ladder = ladder[sort.SearchInts(ladder, from):]
	best := MixingSet{}
	bestSize := 0
	for _, size := range ladder {
		if err := opt.interrupted(); err != nil {
			return MixingSet{}, err
		}
		best.SizesChecked++
		sum, _ := s.evalSize(p, support, size)
		if sum < opt.Threshold {
			bestSize = size
			best.Sum = sum
		}
	}
	if bestSize > 0 {
		best.Vertices = s.materialize(p, support, bestSize)
	}
	return best, nil
}

// sizeLadder returns the cached candidate-size ladder, rebuilding it only
// when minSize or growth changed since the previous sweep.
func (s *Sweeper) sizeLadder(minSize int, growth float64) []int {
	if !s.ladderOK || s.ladderMin != minSize || s.ladderGrowth != growth {
		s.ladder = SizeLadderWithGrowth(minSize, s.g.NumVertices(), growth)
		s.ladderMin, s.ladderGrowth = minSize, growth
		s.ladderOK = true
	}
	return s.ladder
}

// denseSweep is LargestMixingSetOpt over the sweeper's reusable buffers.
// Instead of replaying the reference's O(n)-per-ladder-size full scan, it
// compacts the frontier once — one sequential pass over p extracts the exact
// support (skipping a zero mass changes nothing: off-support x-values have
// the closed degree form either way) and marks it in the L2-resident supBits
// bitmap — and then runs the explicit/implicit merge of the sparse machinery
// over that support. Every later ladder size touches O(support) explicit
// values plus index probes, never the n-sized arrays, which is what turns
// the early-walk dense sweep from a memory-bound O(n·ladder) scan into a
// cache-resident pass. Outputs are bit-identical to the reference: the
// extracted support is exactly the support the sparse sweep is equivalence-
// tested with, explicit values use the exact XValueAt expression, and both
// paths fold into the canonical mixingSum. All buffers are retained, so
// steady-state dense sweeps allocate nothing. Like the sparse path, the
// returned Vertices alias sweeper storage and stay valid only until the
// sweeper's next sweep.
func (s *Sweeper) denseSweep(p Dist, minSize, from int, opt MixOptions) (MixingSet, error) {
	n := s.g.NumVertices()
	if cap(s.supBuf) < n {
		s.supBuf = make([]int32, 0, n)
	}
	if len(s.supBits) != (n+63)/64 {
		s.supBits = make([]uint64, (n+63)/64)
	}
	sup := s.supBuf[:0]
	bits := s.supBits
	for v, pv := range p {
		if pv != 0 {
			sup = append(sup, int32(v))
			bits[uint(v)>>6] |= 1 << (uint(v) & 63)
		}
	}
	s.supBuf = sup
	s.prepareDense(sup)
	return s.sweepLadder(p, sup, minSize, from, opt)
}

// prepare derives the per-step support tables: the support's positions in
// the degree order (ascending) and their prefix degree sums.
func (s *Sweeper) prepare(support []int32) {
	ns := len(support)
	s.ensureSupportBuffers(ns)
	s.wpos = s.wpos[:ns]
	for i, v := range support {
		s.wpos[i] = s.idx.pos[v]
	}
	slices.Sort(s.wpos)
	s.prefixDegrees()
}

// prepareDense is prepare for the compacted dense path: with every support
// vertex marked in supBits, the support's positions in the degree order fall
// out of one sequential scan of idx.order — O(n) bitmap probes instead of
// the sparse path's O(ns·log ns) position sort, which matters when the
// support is a large fraction of the graph. The bitmap is cleared behind the
// scan (whole words: only support vertices ever set bits in them).
func (s *Sweeper) prepareDense(support []int32) {
	s.ensureSupportBuffers(len(support))
	s.wpos = s.wpos[:0]
	bits := s.supBits
	for i, v := range s.idx.order {
		if bits[uint(v)>>6]&(1<<(uint(v)&63)) != 0 {
			s.wpos = append(s.wpos, int32(i))
		}
	}
	for _, v := range support {
		bits[uint(v)>>6] = 0
	}
	s.prefixDegrees()
}

// ensureSupportBuffers sizes the per-sweep support scratch for ns entries
// and clears the selection marks.
func (s *Sweeper) ensureSupportBuffers(ns int) {
	if cap(s.wpos) < ns {
		s.wpos = make([]int32, 0, 2*ns)
		s.wdeg = make([]int64, 0, 2*ns+1)
		s.xsup = make([]float64, 0, 2*ns)
		s.ents = make([]sweepEntry, 0, 2*ns)
		s.sel = make([]bool, 0, 2*ns)
	}
	s.xsup = s.xsup[:ns]
	s.sel = s.sel[:ns]
	for i := range s.sel {
		s.sel[i] = false
	}
}

// prefixDegrees rebuilds the exact prefix degree sums over the (ascending)
// support positions in wpos.
func (s *Sweeper) prefixDegrees() {
	s.wdeg = append(s.wdeg[:0], 0)
	for _, posn := range s.wpos {
		s.wdeg = append(s.wdeg, s.wdeg[len(s.wdeg)-1]+int64(s.idx.degs[posn]))
	}
}

// posBelow counts support positions strictly below index position i.
func (s *Sweeper) posBelow(i int) int {
	lo, hi := 0, len(s.wpos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s.wpos[mid]) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// implicitBefore counts off-support vertices whose (x, id) key precedes
// ent's. Off-support values are degs/µ' in index order — the exact XValueAt
// division — or the constant 1/size on an edgeless graph, where the index
// order degenerates to plain ascending id because every degree is zero.
func (s *Sweeper) implicitBefore(ent sweepEntry) int {
	idx := s.idx
	n := len(idx.order)
	var i3 int
	if s.muPrime == 0 {
		c := s.target
		switch {
		case c < ent.x:
			i3 = n
		case c > ent.x:
			return 0
		default:
			i3 = sort.Search(n, func(i int) bool { return idx.order[i] >= ent.v })
		}
	} else {
		mu := s.muPrime
		i1 := sort.Search(n, func(i int) bool { return float64(idx.degs[i])/mu >= ent.x })
		i3 = i1
		if i1 < n && float64(idx.degs[i1])/mu == ent.x {
			d := idx.degs[i1]
			runEnd := i1 + sort.Search(n-i1, func(t int) bool { return idx.degs[i1+t] > d })
			i3 = i1 + sort.Search(runEnd-i1, func(t int) bool { return idx.order[i1+t] >= ent.v })
		}
	}
	return i3 - s.posBelow(i3)
}

// implicitPrefix returns the exact degree sum of the first j off-support
// entries of the degree order.
func (s *Sweeper) implicitPrefix(j int) int64 {
	if j == 0 {
		return 0
	}
	idx := s.idx
	n := len(idx.order)
	end := sort.Search(n+1, func(i int) bool { return i-s.posBelow(i) >= j })
	t := s.posBelow(end)
	return idx.prefix[end] - s.wdeg[t]
}

// selectExplicit partitions ents so that ents[:eSel] holds exactly the
// explicit entries that belong to the k smallest keys of the explicit ∪
// implicit union, returning eSel. It is a quickselect over the explicit
// entries only: each pivot's union rank adds the implicit count from the
// index, so off-support vertices are never enumerated. The returned prefix
// is a set, not sorted.
func (s *Sweeper) selectExplicit(ents []sweepEntry, k int) int {
	lo, hi := 0, len(ents)
	for hi-lo > 12 {
		// Median-of-3 pivot, parked at hi-1 for a Lomuto partition.
		mid := lo + (hi-lo)/2
		if entryLess(ents[mid], ents[lo]) {
			ents[mid], ents[lo] = ents[lo], ents[mid]
		}
		if entryLess(ents[hi-1], ents[mid]) {
			ents[hi-1], ents[mid] = ents[mid], ents[hi-1]
			if entryLess(ents[mid], ents[lo]) {
				ents[mid], ents[lo] = ents[lo], ents[mid]
			}
		}
		ents[mid], ents[hi-1] = ents[hi-1], ents[mid]
		piv := ents[hi-1]
		m := lo
		for i := lo; i < hi-1; i++ {
			if entryLess(ents[i], piv) {
				ents[i], ents[m] = ents[m], ents[i]
				m++
			}
		}
		ents[m], ents[hi-1] = ents[hi-1], ents[m]
		// ents[:lo] are known-selected and smaller than ents[lo:hi], so the
		// pivot's union rank is its absolute explicit index m plus the
		// implicit entries below it.
		if m+s.implicitBefore(ents[m]) < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	// Insertion-sort the remaining bracket, then walk it while entries keep
	// ranking inside the k smallest.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && entryLess(ents[j], ents[j-1]); j-- {
			ents[j], ents[j-1] = ents[j-1], ents[j]
		}
	}
	for lo < hi && lo+s.implicitBefore(ents[lo]) < k {
		lo++
	}
	return lo
}

// evalSize evaluates one candidate size: explicit x-values, the explicit/
// implicit split of the |S| smallest, and the canonical sum. Returns the sum
// and the explicit count (ents[:eSel] holds the selected explicit entries).
func (s *Sweeper) evalSize(p Dist, support []int32, size int) (float64, int) {
	g := s.g
	s.muPrime = MuPrime(g, size)
	if s.muPrime == 0 {
		s.target = 1 / float64(size)
	} else {
		s.target = 0
	}
	s.ents = s.ents[:0]
	for i, vv := range support {
		v := int(vv)
		var xv float64
		if s.muPrime == 0 {
			xv = math.Abs(p[v] - s.target)
		} else {
			xv = math.Abs(p[v] - float64(g.Degree(v))/s.muPrime)
		}
		s.xsup[i] = xv
		s.ents = append(s.ents, sweepEntry{x: xv, v: vv, slot: int32(i)})
	}
	eSel := s.selectExplicit(s.ents, size)
	for _, en := range s.ents[:eSel] {
		s.sel[en.slot] = true
	}
	onSum := 0.0
	for i := range s.sel {
		if s.sel[i] {
			onSum += s.xsup[i]
			s.sel[i] = false
		}
	}
	j := size - eSel
	offDeg := s.implicitPrefix(j)
	return mixingSum(onSum, offDeg, j, s.muPrime, size), eSel
}

// materialize re-runs the selection for the accepted size and emits its
// vertex set, ascending, into the sweeper's reused result buffer. Doing this
// once for the winning size (instead of per passing size, as the dense sweep
// does) keeps the ladder loop free of O(size) work, and reusing the buffer
// keeps steady-state sweeps allocation-free — callers that retain the set
// across sweeps must copy it.
func (s *Sweeper) materialize(p Dist, support []int32, size int) []int {
	_, eSel := s.evalSize(p, support, size)
	out := s.out[:0]
	for _, en := range s.ents[:eSel] {
		out = append(out, int(en.v))
	}
	j := size - eSel
	wi := 0
	for i := 0; j > 0; i++ {
		if wi < len(s.wpos) && int(s.wpos[wi]) == i {
			wi++
			continue
		}
		out = append(out, int(s.idx.order[i]))
		j--
	}
	slices.Sort(out)
	s.out = out
	return out
}
