// Package seedpool is the outer pool loop of Algorithm 1 (lines 1–4 and
// 21–23), the one implementation every detection engine runs: draw seeds
// from the vertices no community has claimed yet, detect their communities,
// assign them and remove them from the pool, until the pool is empty. The
// engines differ only in how they detect a super-step's seeds, which they
// pass in as a callback; seed drawing, assignment and emission order live
// here, so every engine draws the same seeds from the same pool seed.
package seedpool

import (
	"context"

	"cdrw/internal/graph"
	"cdrw/internal/rng"
)

// Config parameterises one pool run.
type Config struct {
	// Seed drives seed sampling; a run is fully deterministic in it.
	Seed uint64
	// Batch is the number of seeds drawn per super-step. Values ≤ 1 draw
	// one uniform seed per super-step.
	Batch int
	// MinSize is R, the smallest community size: a pool smaller than
	// Batch·MinSize is a straggler tail and sizes its batches from its
	// component structure.
	MinSize int
}

// Found is one seed's detected community and the engine's statistics.
type Found[S any] struct {
	Community []int
	Stats     S
}

// Detection is one frozen detection of the pool loop.
type Detection[S any] struct {
	// Raw is the seed's community as detected.
	Raw []int
	// Assigned is Raw minus the vertices earlier detections claimed, plus
	// the seed itself. The Assigned sets partition the vertex set.
	Assigned []int
	Stats    S
}

// Scratch is the loop's working memory. Callers that run the loop
// repeatedly keep one and pass it to every run; the zero value is ready to
// use.
type Scratch struct {
	assigned []bool
	pool     []int
	seeds    []int

	// Batched draws only.
	blocked     []bool
	blockedList []int
	free        []int
	comp        []int
	queue       []int
	members     []int
}

// Run partitions g. Each super-step draws up to cfg.Batch seeds from the
// pool of unassigned vertices — the first uniformly, the rest spread outside
// the 2-hop balls of the seeds already drawn, or one per component in the
// straggler tail — and hands them to detect, which returns one Found per
// seed in seed order. The detections are then assigned in draw order (a
// vertex claimed by an earlier detection of the same super-step is not
// re-assigned) and passed to emit as they freeze, before the next
// super-step starts. Run stops without error when emit returns false, and
// returns detect's error or ctx's error (polled between super-steps)
// unwrapped.
//
// The tail rule: once the pool is smaller than Batch·MinSize it cannot
// plausibly hold a batch of distinct communities within one connected
// piece, and forcing every straggler to walk would run detections a
// one-seed schedule absorbs into one another. But when the residual pool
// splits into several components of its induced subgraph, a one-seed
// schedule must seed each piece separately anyway, so the tail draws up to
// min(Batch, components) seeds, one per distinct component. A
// single-component tail draws one seed per super-step.
func Run[S any](ctx context.Context, g *graph.Graph, cfg Config, sc *Scratch,
	detect func(seeds []int) ([]Found[S], error), emit func(Detection[S]) bool) error {
	n := g.NumVertices()
	r := rng.New(cfg.Seed)
	if cap(sc.assigned) < n {
		sc.assigned = make([]bool, n)
		sc.pool = make([]int, n)
	}
	assigned := sc.assigned[:n]
	pool := sc.pool[:n]
	for v := range pool {
		assigned[v] = false
		pool[v] = v
	}
	for len(pool) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		seeds := sc.draw(g, r, pool, cfg)
		found, err := detect(seeds)
		if err != nil {
			return err
		}
		for i, f := range found {
			s := seeds[i]
			// The seed is always kept: it was drawn from the pool, so it is
			// free unless an earlier detection of this super-step took it.
			kept := make([]int, 0, len(f.Community))
			for _, v := range f.Community {
				if !assigned[v] {
					kept = append(kept, v)
					assigned[v] = true
				}
			}
			if !assigned[s] {
				kept = append(kept, s)
				assigned[s] = true
			}
			if !emit(Detection[S]{Raw: f.Community, Assigned: kept, Stats: f.Stats}) {
				return nil
			}
		}
		next := pool[:0]
		for _, v := range pool {
			if !assigned[v] {
				next = append(next, v)
			}
		}
		pool = next
	}
	return nil
}

// draw returns the super-step's seeds, the first uniform over the pool.
// A batch spreads its further seeds outside the 2-hop balls of the seeds
// already drawn — the spreading the parallel engine uses — while a
// straggler tail draws them from distinct components of the pool.
func (sc *Scratch) draw(g *graph.Graph, r *rng.RNG, pool []int, cfg Config) []int {
	seeds := append(sc.seeds[:0], pool[r.Intn(len(pool))])
	if cfg.Batch > 1 {
		n := g.NumVertices()
		if cap(sc.blocked) < n {
			sc.blocked = make([]bool, n)
			sc.free = make([]int, 0, n)
			sc.comp = make([]int, n)
			sc.queue = make([]int, 0, n)
		}
		if len(pool) >= cfg.Batch*cfg.MinSize {
			seeds = sc.spread(r, pool, seeds, cfg.Batch, func(s int) []int { return g.Ball(s, 2) })
		} else if poolComponents(g, pool, sc.assigned, sc.comp, sc.queue) > 1 {
			seeds = sc.spread(r, pool, seeds, cfg.Batch, func(s int) []int {
				sc.members = sc.members[:0]
				for _, v := range pool {
					if sc.comp[v] == sc.comp[s] {
						sc.members = append(sc.members, v)
					}
				}
				return sc.members
			})
		}
	}
	sc.seeds = seeds
	return seeds
}

// spread adds seeds, each uniform among the pool vertices outside the
// regions of the seeds already drawn, until the batch is full or the
// regions cover the pool. Each region is computed once and remembered, so
// clearing the marks afterwards costs no second search.
func (sc *Scratch) spread(r *rng.RNG, pool, seeds []int, batch int, region func(s int) []int) []int {
	blocked := sc.blocked
	sc.blockedList = append(sc.blockedList[:0], region(seeds[0])...)
	for _, u := range sc.blockedList {
		blocked[u] = true
	}
	for len(seeds) < batch {
		free := sc.free[:0]
		for _, v := range pool {
			if !blocked[v] {
				free = append(free, v)
			}
		}
		sc.free = free
		if len(free) == 0 {
			break
		}
		s := free[r.Intn(len(free))]
		seeds = append(seeds, s)
		for _, u := range region(s) {
			blocked[u] = true
			sc.blockedList = append(sc.blockedList, u)
		}
	}
	for _, u := range sc.blockedList {
		blocked[u] = false
	}
	return seeds
}

// poolComponents labels the connected components of the subgraph induced by
// the unassigned pool vertices (edges with both endpoints unassigned),
// writing each pool vertex's component into comp and returning the count.
// Labels are assigned in pool order, deterministically. Only pool entries of
// comp are written; queue is BFS scratch. Cost is O(n + vol(pool)), paid
// once per tail super-step, where it buys shared rounds for every extra
// component.
func poolComponents(g *graph.Graph, pool []int, assigned []bool, comp []int, queue []int) int {
	for _, v := range pool {
		comp[v] = -1
	}
	comps := 0
	for _, v := range pool {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = comps
		queue = append(queue[:0], v)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(u) {
				if !assigned[w] && comp[w] < 0 {
					comp[w] = comps
					queue = append(queue, int(w))
				}
			}
		}
		comps++
	}
	return comps
}
