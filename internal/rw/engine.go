package rw

import (
	"fmt"
	"math/bits"

	"cdrw/internal/graph"
)

// DenseSwitchFraction controls the hybrid engine's default regime switch: a
// walk stays on the sparse-frontier kernel while its support holds fewer
// than n/DenseSwitchFraction vertices and moves to the dense kernel past
// that. The sparse kernel costs O(vol(support) + nnz·log nnz) per step, the
// dense one O(n + vol(support)); at nnz ≈ n/8 the bookkeeping of the sparse
// side stops paying for itself on the graphs the paper targets (average
// degree Θ(log n)).
const DenseSwitchFraction = 8

// WalkEngine evolves the probability distribution of a simple random walk
// with a hybrid sparse/dense kernel. While the walk's support is a small
// ball around the source — the regime the paper's local-mixing analysis says
// dominates Algorithm 1 — the engine touches only the frontier and its
// neighbourhood; once the support passes the density threshold it switches
// to the flat dense kernel (Step). Both kernels accumulate neighbour
// contributions in ascending vertex order, so the evolved distribution is
// bit-identical regardless of where the switch happens.
//
// A WalkEngine is not safe for concurrent use; Reset makes one engine
// reusable across many walks without reallocating.
type WalkEngine struct {
	g         *graph.Graph
	p, next   Dist
	frontier  []int32  // support of p, ascending, valid while sparse
	mark      []uint64 // bitmap of the support being built, all-zero between steps
	sparse    bool
	threshold int // support size at which the engine goes dense
	steps     int
	sweeper   *Sweeper // lazily built; batch engines inject one sharing an index
}

// NewWalkEngine returns an engine over g with the default density threshold
// max(1, n/DenseSwitchFraction). The engine starts with no walk loaded; call
// Reset before stepping.
func NewWalkEngine(g *graph.Graph) *WalkEngine {
	n := g.NumVertices()
	threshold := n / DenseSwitchFraction
	if threshold < 1 {
		threshold = 1
	}
	return &WalkEngine{
		g:         g,
		p:         make(Dist, n),
		next:      make(Dist, n),
		mark:      make([]uint64, (n+63)/64),
		threshold: threshold,
	}
}

// NewWalkEngineWithIndex is NewWalkEngine with a prebuilt degree index for
// the sparse sweep, so long-lived callers (core.Detector) can share one
// index across every engine they create over the same graph.
func NewWalkEngineWithIndex(g *graph.Graph, idx *DegreeIndex) *WalkEngine {
	e := NewWalkEngine(g)
	e.sweeper = NewSweeperWithIndex(g, idx)
	return e
}

// SetDenseThreshold overrides the support size at which the engine abandons
// the sparse kernel. 0 forces the dense kernel from the first step (the
// legacy behaviour, useful as a benchmark baseline); values > n keep the
// sparse kernel for the walk's whole life.
func (e *WalkEngine) SetDenseThreshold(nnz int) {
	if nnz < 0 {
		nnz = 0
	}
	e.threshold = nnz
}

// Reset loads a fresh point distribution at source (p₀ of Algorithm 1
// line 7), reusing the engine's buffers.
func (e *WalkEngine) Reset(source int) error {
	n := e.g.NumVertices()
	if source < 0 || source >= n {
		return fmt.Errorf("rw: source %d out of range [0,%d): %w", source, n, graph.ErrVertexOutOfRange)
	}
	if e.sparse {
		// Sparse invariant: p is non-zero only on the frontier and next is
		// all zero, so clearing the frontier entries suffices.
		for _, v := range e.frontier {
			e.p[v] = 0
		}
	} else {
		clear(e.p)
		clear(e.next)
	}
	e.sparse = true
	e.frontier = append(e.frontier[:0], int32(source))
	e.p[source] = 1
	e.steps = 0
	return nil
}

// Dist returns the current distribution as a dense vector. The slice aliases
// the engine's state: it is valid until the next Step or Reset and must not
// be modified. Clone it to keep a snapshot.
func (e *WalkEngine) Dist() Dist { return e.p }

// Steps returns how many steps the walk has taken since the last Reset.
func (e *WalkEngine) Steps() int { return e.steps }

// SupportSize returns the number of vertices with non-zero probability while
// the engine is sparse, and -1 once it has switched to the dense kernel (the
// dense kernel does not track support).
func (e *WalkEngine) SupportSize() int {
	if !e.sparse {
		return -1
	}
	return len(e.frontier)
}

// Sparse reports whether the engine is still on the sparse-frontier kernel.
func (e *WalkEngine) Sparse() bool { return e.sparse }

// Step advances the walk by one step of the simple random walk, picking the
// kernel by the current support density.
func (e *WalkEngine) Step() {
	if e.maybeDensify(); e.sparse {
		e.sparseStep()
	} else {
		e.denseStep()
	}
}

// maybeDensify retires the frontier once the support reaches the threshold.
// The transition is one-way: support can only shrink on pathological graphs,
// and the dense kernel is correct regardless.
func (e *WalkEngine) maybeDensify() {
	if e.sparse && len(e.frontier) >= e.threshold {
		e.sparse = false
		e.frontier = e.frontier[:0]
	}
}

func (e *WalkEngine) denseStep() {
	e.p, e.next = Step(e.g, e.p, e.next), e.p
	e.steps++
}

// sparseStep pushes mass from the frontier only: p'(w) = Σ_{v∈F∩N(w)}
// p(v)/d(v). Frontier vertices are visited in ascending order, so each
// target accumulates its contributions in exactly the order the dense kernel
// uses. Shares that underflow to zero are skipped — adding +0 is the
// identity, and skipping keeps the frontier free of zero-mass entries. The
// touched vertices are recorded in a bitmap and the new frontier extracted
// from it in one O(n/64 + nnz) scan, already sorted — cheaper than sorting
// an append-order list even for small supports.
func (e *WalkEngine) sparseStep() {
	g := e.g
	mark := e.mark
	for _, vv := range e.frontier {
		v := int(vv)
		pv := e.p[v]
		e.p[v] = 0
		deg := g.Degree(v)
		if deg == 0 {
			mark[uint(v)>>6] |= 1 << (uint(v) & 63)
			e.next[v] += pv
			continue
		}
		share := pv / float64(deg)
		if share == 0 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			mark[uint(w)>>6] |= 1 << (uint(w) & 63)
			e.next[w] += share
		}
	}
	nf := e.frontier[:0]
	for wi, word := range mark {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			nf = append(nf, int32(wi<<6+b))
			word &^= 1 << uint(b)
		}
		mark[wi] = 0
	}
	e.frontier = nf
	e.p, e.next = e.next, e.p
	e.steps++
}

// Advance takes k steps.
func (e *WalkEngine) Advance(k int) {
	for i := 0; i < k; i++ {
		e.Step()
	}
}

// LargestMixingSet runs the Algorithm 1 candidate-size sweep on the walk's
// current distribution, automatically using the sparse O(support)-per-size
// sweep while the engine is on the sparse kernel (the support is exactly the
// frontier) and the dense reference sweep after the switch. Results are
// bit-identical to LargestMixingSetOpt(g, e.Dist(), minSize, opt) either
// way. The zero MixOptions selects the paper's constants. The sweeper and
// its degree index are built lazily on first use and reused across Reset.
// On the sparse path the returned Vertices alias sweeper storage and stay
// valid only until this engine's next sweep; copy them to retain a set.
func (e *WalkEngine) LargestMixingSet(minSize int, opt MixOptions) (MixingSet, error) {
	return e.LargestMixingSetFrom(minSize, 0, false, opt)
}

// LargestMixingSetDense runs the sweep on the dense O(n)-per-size reference
// path regardless of the engine's regime — the WithDenseSweep baseline of
// the detection loops. Results are bit-identical to LargestMixingSet; unlike
// the package-level LargestMixingSetOpt it reuses the engine's sweeper
// buffers, so repeat serving stays allocation-free. The returned Vertices
// alias sweeper storage, valid until this engine's next sweep.
func (e *WalkEngine) LargestMixingSetDense(minSize int, opt MixOptions) (MixingSet, error) {
	return e.LargestMixingSetFrom(minSize, 0, true, opt)
}

// LargestMixingSetFrom is LargestMixingSet (LargestMixingSetDense when dense
// is set) restricted to the ladder sizes ≥ from: smaller sizes are skipped,
// every evaluated size is bit-identical to the full sweep, and the result is
// the full sweep's when its largest passing size is ≥ from and not Found
// otherwise. A caller that only needs to know whether the full answer has a
// given size — re-verifying a cached community — pays for the ladder suffix
// alone. from ≤ minSize is the full sweep.
func (e *WalkEngine) LargestMixingSetFrom(minSize, from int, dense bool, opt MixOptions) (MixingSet, error) {
	if e.sweeper == nil {
		e.sweeper = NewSweeper(e.g)
	}
	var support []int32
	if e.sparse && !dense {
		support = e.frontier
	}
	return e.sweeper.largestFrom(e.p, support, minSize, from, opt)
}

// BatchWalkEngine advances many walks over the same graph in lockstep, each
// walk on the hybrid sparse/dense kernel and bit-identical to a solo
// WalkEngine. Fusion additionally moves dense walks into a shared
// vertex-interleaved store — the K walk masses of a vertex sit side by side
// on one cache line — advanced by a single fused pass over the CSR arrays
// per step. Fusion trades per-walk write locality for K× fewer touched
// cache lines per edge: on community-structured graphs (PPM/SBM), where a
// solo walk's writes already stay inside one block's index range, per-walk
// stepping measures faster; on expander-like graphs at scales where one
// walk's random-access window outgrows the cache, the fused pass wins. By
// default the engine picks the kernel itself from the graph's edge-locality
// statistics (see fuseFromStats); SetFused overrides the choice either way.
type BatchWalkEngine struct {
	g        *graph.Graph
	idx      *DegreeIndex // shared by every walk's sparse sweep
	walks    []*WalkEngine
	halted   []bool
	fuseMode fuseMode
	spread   float64 // cached estimateSpread(g), for the auto decision
	spreadOK bool
	inBatch  []bool    // walk's distribution lives in the interleaved store
	pAll     []float64 // len K·n, row v holds the K walks' masses at v
	nextAll  []float64
	shareAll []float64 // len K·n, row v holds the K walks' outgoing shares at v
	cols     []int     // scratch: interleaved columns advanced this step
}

// fuseMode selects the dense kernel of a batch: decided from graph
// statistics (default), or forced on/off by SetFused.
type fuseMode uint8

const (
	fuseAuto fuseMode = iota
	fuseOn
	fuseOff
)

// NewBatchWalkEngine returns a batch of point-source walks, one per source.
// Duplicate sources are allowed (the walks evolve independently).
func NewBatchWalkEngine(g *graph.Graph, sources []int) (*BatchWalkEngine, error) {
	// One degree index serves every walk's sparse sweep: it is read-only
	// after construction, so per-walk Sweepers sharing it can run from
	// different goroutines (DetectParallel sweeps all walks concurrently).
	return NewBatchWalkEngineWithIndex(g, sources, NewDegreeIndex(g))
}

// NewBatchWalkEngineWithIndex is NewBatchWalkEngine with a caller-owned
// degree index, letting a reusable Detector keep one index alive across
// repeated parallel runs instead of rebuilding it per call.
func NewBatchWalkEngineWithIndex(g *graph.Graph, sources []int, idx *DegreeIndex) (*BatchWalkEngine, error) {
	b := &BatchWalkEngine{
		g:       g,
		idx:     idx,
		walks:   make([]*WalkEngine, len(sources)),
		halted:  make([]bool, len(sources)),
		inBatch: make([]bool, len(sources)),
	}
	for i, s := range sources {
		e := NewWalkEngineWithIndex(g, idx)
		if err := e.Reset(s); err != nil {
			return nil, err
		}
		b.walks[i] = e
	}
	return b, nil
}

// Reset reloads the batch with fresh point-source walks, one per source,
// reusing every per-walk engine and buffer it already holds: a long-lived
// caller (core's parallel engine) runs detection after detection on one
// batch engine instead of rebuilding it per run. The batch may grow or
// shrink; new walks share the existing degree index. Walks resume unfused
// and unhalted (SetFused state is kept, so fused batches re-fuse as their
// walks go dense). On an out-of-range source the batch is left unusable for
// stepping but safe to Reset again.
func (b *BatchWalkEngine) Reset(sources []int) error {
	n := b.g.NumVertices()
	for _, s := range sources {
		if s < 0 || s >= n {
			return fmt.Errorf("rw: source %d out of range [0,%d): %w", s, n, graph.ErrVertexOutOfRange)
		}
	}
	if len(sources) != len(b.walks) && b.pAll != nil {
		// The interleaved store's stride is the walk count; realloc lazily.
		b.pAll, b.nextAll, b.shareAll = nil, nil, nil
	}
	// Resize by reslicing up to capacity, so engines built for an earlier,
	// larger batch survive a shrink and are found again on the next grow;
	// only never-before-seen slots allocate.
	for cap(b.walks) < len(sources) {
		b.walks = append(b.walks[:cap(b.walks)], nil)
	}
	b.walks = b.walks[:len(sources)]
	for i := range b.walks {
		if b.walks[i] == nil {
			b.walks[i] = NewWalkEngineWithIndex(b.g, b.idx)
		}
	}
	if cap(b.halted) < len(sources) {
		b.halted = make([]bool, len(sources))
	}
	b.halted = b.halted[:len(sources)]
	if cap(b.inBatch) < len(sources) {
		b.inBatch = make([]bool, len(sources))
	}
	b.inBatch = b.inBatch[:len(sources)]
	for i, s := range sources {
		if b.inBatch[i] {
			// The walk's own arrays are stale (its state lives in the
			// interleaved store); a joined walk is always dense, so its Reset
			// clears them fully.
			b.inBatch[i] = false
		}
		if err := b.walks[i].Reset(s); err != nil {
			return err
		}
		b.halted[i] = false
	}
	b.cols = b.cols[:0]
	return nil
}

// LargestMixingSet runs the candidate-size sweep for walk i on its current
// distribution, sparse-aware like WalkEngine.LargestMixingSet. Like StepWalk
// it touches only walk i's state plus shared read-only structures, so
// callers may sweep distinct walks from distinct goroutines.
func (b *BatchWalkEngine) LargestMixingSet(i, minSize int, opt MixOptions) (MixingSet, error) {
	if b.inBatch[i] {
		b.materialize(i)
	}
	return b.walks[i].LargestMixingSet(minSize, opt)
}

// LargestMixingSetDense is LargestMixingSet forced onto the dense reference
// path (WalkEngine.LargestMixingSetDense) for walk i, with the same
// per-walk concurrency contract.
func (b *BatchWalkEngine) LargestMixingSetDense(i, minSize int, opt MixOptions) (MixingSet, error) {
	if b.inBatch[i] {
		b.materialize(i)
	}
	return b.walks[i].LargestMixingSetDense(minSize, opt)
}

// Size returns the number of walks in the batch, halted or not.
func (b *BatchWalkEngine) Size() int { return len(b.walks) }

// Dist returns walk i's current distribution as a dense vector. Like
// WalkEngine.Dist the result aliases engine storage — valid until the next
// Step — and for a walk in the interleaved store it is materialised on each
// call (an O(n) gather), so callers should read it once per step.
func (b *BatchWalkEngine) Dist(i int) Dist {
	if b.inBatch[i] {
		b.materialize(i)
	}
	return b.walks[i].Dist()
}

// materialize gathers column i of the interleaved store into walk i's own
// dense array (which is idle storage while the walk is batched).
func (b *BatchWalkEngine) materialize(i int) {
	k := len(b.walks)
	p := b.walks[i].p
	for v := range p {
		p[v] = b.pAll[v*k+i]
	}
}

// Engine returns walk i's underlying engine. While walk i is batched the
// engine's own Dist is stale — go through BatchWalkEngine.Dist instead.
func (b *BatchWalkEngine) Engine(i int) *WalkEngine { return b.walks[i] }

// Halt removes walk i from subsequent steps, freezing its distribution at
// the current state. Detection loops halt walks whose stop rule has fired.
func (b *BatchWalkEngine) Halt(i int) {
	if b.inBatch[i] {
		b.materialize(i)
		b.inBatch[i] = false
	}
	b.halted[i] = true
}

// Halted reports whether walk i has been halted.
func (b *BatchWalkEngine) Halted(i int) bool { return b.halted[i] }

// Active returns the number of walks still stepping.
func (b *BatchWalkEngine) Active() int {
	n := 0
	for _, h := range b.halted {
		if !h {
			n++
		}
	}
	return n
}

// SetFused forces the dense walks onto per-walk stepping (false) or the
// fused interleaved pass (true), overriding the engine's automatic choice.
// Turning fusion off mid-run materialises every batched walk back into its
// own engine. Either way the walks' evolution is bit-identical, so the
// toggle is purely a performance choice.
func (b *BatchWalkEngine) SetFused(on bool) {
	if !on {
		for i := range b.walks {
			if b.inBatch[i] {
				b.materialize(i)
				b.inBatch[i] = false
			}
		}
		b.fuseMode = fuseOff
		return
	}
	b.fuseMode = fuseOn
}

// shouldFuse resolves the batch's dense kernel for this step: an explicit
// SetFused wins; otherwise the decision comes from the graph's edge-locality
// statistics and the batch size. The spread estimate is computed once per
// engine (the graph is immutable) and the rule itself is O(1), so the auto
// path re-resolves cheaply even as Reset changes the batch size.
func (b *BatchWalkEngine) shouldFuse() bool {
	switch b.fuseMode {
	case fuseOn:
		return true
	case fuseOff:
		return false
	}
	if !b.spreadOK {
		b.spread = estimateSpread(b.g)
		b.spreadOK = true
	}
	return fuseFromStats(b.g.NumVertices(), len(b.walks), b.spread)
}

// StepWalk advances walk i alone by one hybrid step. It is the concurrency
// hook for unfused batches: distinct walks touch disjoint state, so callers
// may step different walks from different goroutines (core.DetectParallel
// overlaps each walk's step with its mixing-set sweep this way). It must
// not be mixed with fused stepping — a walk living in the interleaved store
// can only advance through Step.
func (b *BatchWalkEngine) StepWalk(i int) {
	if b.halted[i] {
		return
	}
	if b.inBatch[i] {
		panic("rw: StepWalk on a walk in the fused interleaved store")
	}
	b.walks[i].Step()
}

// Step advances every non-halted walk by one step.
func (b *BatchWalkEngine) Step() {
	b.cols = b.cols[:0]
	for i, e := range b.walks {
		if b.halted[i] {
			continue
		}
		if b.inBatch[i] {
			b.cols = append(b.cols, i)
			continue
		}
		if e.maybeDensify(); e.sparse {
			e.sparseStep()
			continue
		}
		if b.shouldFuse() {
			b.join(i)
			b.cols = append(b.cols, i)
		} else {
			e.denseStep()
		}
	}
	if len(b.cols) > 0 {
		b.fusedStep()
	}
}

// join moves (already dense) walk i's distribution into the interleaved
// store, allocated on first use.
func (b *BatchWalkEngine) join(i int) {
	k := len(b.walks)
	n := b.g.NumVertices()
	if b.pAll == nil {
		b.pAll = make([]float64, k*n)
		b.nextAll = make([]float64, k*n)
		b.shareAll = make([]float64, k*n)
	}
	e := b.walks[i]
	for v := 0; v < n; v++ {
		b.pAll[v*k+i] = e.p[v]
	}
	b.inBatch[i] = true
}

// fusedStep is the dense kernel fused across the batched columns: one pass
// over the CSR arrays advances them all. Like congest's blocked flood
// kernel, the pass is share-precompute + gather: an interleave pass freezes
// each column's outgoing share per vertex into rows of shareAll (row v holds
// the batched walks' shares at v, side by side on one cache line), then a
// gather pulls each neighbour list once and accumulates every column from
// the k-wide rows its neighbour ids address — the random-access stream is
// one shared row stream instead of a scattered read-modify-write per edge
// per walk. Per walk each share is the exact quotient the solo kernel
// computes and each output accumulates its in-neighbours' shares in the
// same ascending order Step's scatter delivers them (zero shares are exact
// additive identities over non-negative partial sums), so each column
// evolves bit-identically to a solo dense walk.
func (b *BatchWalkEngine) fusedStep() {
	g := b.g
	k := len(b.walks)
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		row := b.pAll[v*k : v*k+k]
		sh := b.shareAll[v*k : v*k+k]
		if d := float64(g.Degree(v)); d > 0 {
			for _, j := range b.cols {
				sh[j] = row[j] / d
			}
		} else {
			for _, j := range b.cols {
				sh[j] = 0
			}
		}
	}
	for u := 0; u < n; u++ {
		ns := g.Neighbors(u)
		out := b.nextAll[u*k : u*k+k]
		if len(ns) == 0 {
			row := b.pAll[u*k : u*k+k]
			for _, j := range b.cols {
				out[j] = row[j] // isolated walks keep their mass
			}
			continue
		}
		for _, j := range b.cols {
			sum := 0.0
			for _, w := range ns {
				sum += b.shareAll[int(w)*k+j]
			}
			out[j] = sum
		}
	}
	b.pAll, b.nextAll = b.nextAll, b.pAll
	for _, j := range b.cols {
		b.walks[j].steps++
	}
}
