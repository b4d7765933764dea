package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdrw/internal/graph"
	"cdrw/internal/rw"
)

// DeltaStats summarises one ApplyDelta swap: the generation now serving, the
// edges applied, the fate of the affected cache lines, and how long readers
// waited for the new generation to become visible.
type DeltaStats struct {
	// Generation is the entry's generation after the call (unchanged for an
	// empty delta).
	Generation int
	// Added and Removed count the edges applied.
	Added, Removed int
	// Kept counts single-seed cache lines whose community was disjoint from
	// the delta's endpoints — carried to the new generation untouched.
	Kept int
	// Reverified counts intersecting single-seed lines promoted after their
	// frozen-step mixing set re-verified against the new graph.
	Reverified int
	// Evicted counts dropped lines: every full-run line (its communities
	// cover all vertices, so no delta leaves it untouched), plus single-seed
	// lines that failed re-verification or could not be re-verified.
	Evicted int
	// SwapDuration is the time from the call until the atomic swap made the
	// new generation visible to readers (graph merge + index delta-rebuild +
	// pool recreation; re-verification happens after the swap and is not
	// included).
	SwapDuration time.Duration
	// ReverifyDuration is the time from the swap until every intersecting
	// line was re-verified and promoted or evicted — the rest of the call.
	ReverifyDuration time.Duration
}

// ApplyDelta mutates the named graph by an edge delta, double-buffered: the
// next CSR generation is merged off the serving copy (graph.ApplyDelta, a
// new immutable snapshot — readers in flight keep the old one), the shared
// index bundle is delta-rebuilt for just the touched vertices, the entry's
// per-fingerprint pools are recreated warm over the new generation, and the
// whole bundle is swapped in atomically under the registry lock. Requests
// started before the swap finish on the old generation; requests after it
// see only the new one.
//
// Invalidation is incremental rather than generation-wide:
//
//   - full-run detect lines are evicted (their communities cover every
//     vertex, so they always intersect the delta);
//   - single-seed community lines whose community contains no endpoint of
//     the delta are kept — re-keyed to the new generation without
//     recomputation;
//   - intersecting single-seed lines are re-verified after the swap by
//     replaying the deterministic walk to its frozen length and re-running
//     only the ladder suffix of that one sweep that can decide the answer
//     against the new CSR (Detector.ReverifyCommunity): promoted on match,
//     evicted on mismatch. Up to poolSize workers re-verify lines in
//     parallel, each holding one pool handle per line, and the survivors are
//     promoted in their old FIFO order under one lock once all are done.
//
// An empty delta is a complete no-op: no generation bump, no invalidation,
// no pool churn. Delta validation errors (edge already present / absent,
// self-loops, duplicates) leave the registry unchanged. Concurrent
// ApplyDelta calls serialise; a Register or Remove racing the merge aborts
// the delta with an error rather than clobbering the newer entry.
func (r *Registry) ApplyDelta(ctx context.Context, name string, adds, dels []graph.Edge) (DeltaStats, error) {
	r.deltaMu.Lock()
	defer r.deltaMu.Unlock()
	start := time.Now()

	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return DeltaStats{}, fmt.Errorf("%w %q", ErrUnknownGraph, name)
	}
	if len(adds) == 0 && len(dels) == 0 {
		gen := e.gen
		r.mu.Unlock()
		return DeltaStats{Generation: gen}, nil
	}
	oldG, oldIx, oldGen := e.g, e.ix, e.gen
	baseOpts := e.opts
	slots := make(map[string]poolSlot, len(e.pools))
	for fp, slot := range e.pools {
		slots[fp] = slot
	}
	r.mu.Unlock()

	// Build the next generation off the serving snapshot, outside the lock:
	// the merge and index rebuild are O(n + m) and must not stall readers.
	newG, err := oldG.ApplyDelta(adds, dels)
	if err != nil {
		return DeltaStats{}, err
	}
	touched := make([]int, 0, 2*(len(adds)+len(dels)))
	for _, ed := range adds {
		touched = append(touched, ed.U, ed.V)
	}
	for _, ed := range dels {
		touched = append(touched, ed.U, ed.V)
	}
	var newIx *rw.SharedIndex
	if oldIx != nil || len(slots) > 0 {
		newIx = rw.NewSharedIndexDelta(newG, oldIx, touched)
	}
	newPools := make(map[string]poolSlot, len(slots))
	for fp, slot := range slots {
		p, err := NewDetectorPoolWithIndex(newG, r.poolSize, newIx, slot.opts...)
		if err != nil {
			return DeltaStats{}, fmt.Errorf("serve: rebuilding pool %q: %w", fp, err)
		}
		p.SetMetrics(r.m)
		newPools[fp] = poolSlot{pool: p, opts: slot.opts}
	}
	sort.Ints(touched)

	stats := DeltaStats{Added: len(adds), Removed: len(dels)}
	newGen := oldGen + 1
	newEntry := &entry{g: newG, opts: baseOpts, gen: newGen, ix: newIx, pools: newPools}
	var pending []commCached

	r.mu.Lock()
	if r.entries[name] != e {
		r.mu.Unlock()
		return DeltaStats{}, fmt.Errorf("serve: graph %q was replaced during the delta", name)
	}
	r.entries[name] = newEntry

	// Migrate this graph's cache lines across the generation bump.
	prefix := cachePrefix(name)
	kept := r.order[:0]
	for _, k := range r.order {
		if !strings.HasPrefix(k, prefix) {
			kept = append(kept, k)
			continue
		}
		if c, ok := r.comm[k]; ok {
			delete(r.comm, k)
			// Only current-generation lines are migratable; anything else is
			// stale weight.
			if k == commKey(name, oldGen, c.stats.Seed, c.fp) {
				if !intersectsSorted(c.community, touched) {
					nk := commKey(name, newGen, c.stats.Seed, c.fp)
					r.comm[nk] = c
					kept = append(kept, nk)
					stats.Kept++
					continue
				}
				if c.stats.FrozenAt > 0 {
					if _, ok := newPools[c.fp]; ok {
						pending = append(pending, c)
						continue
					}
				}
			}
			stats.Evicted++
			continue
		}
		delete(r.cache, k)
		stats.Evicted++
	}
	r.order = kept
	r.mu.Unlock()
	stats.SwapDuration = time.Since(start)

	// Re-verify intersecting single-seed lines on the new generation's own
	// pools, after the swap: promotion is an optimisation, so it must never
	// delay the moment readers see the new graph.
	verified := r.reverifyLines(ctx, newPools, pending)
	r.mu.Lock()
	live := r.entries[name] == newEntry
	for i, c := range pending {
		if !live || !verified[i] {
			// Failed, unverifiable, never reached before ctx ended, or the
			// graph was replaced meanwhile: the line stays evicted.
			stats.Evicted++
			continue
		}
		nk := commKey(name, newGen, c.stats.Seed, c.fp)
		if _, dup := r.comm[nk]; !dup {
			r.comm[nk] = c
			r.rememberLocked(nk)
		}
		stats.Reverified++
	}
	r.mu.Unlock()
	stats.ReverifyDuration = time.Since(start) - stats.SwapDuration

	stats.Generation = newGen
	if r.m != nil {
		r.m.IncDeltaApplied()
		r.m.AddDeltaLines(int64(stats.Kept), int64(stats.Reverified), int64(stats.Evicted))
		r.m.ObserveSwapLatency(stats.SwapDuration)
		r.m.ObserveReverifyLatency(stats.ReverifyDuration)
	}
	return stats, nil
}

// reverifyLines re-verifies pending lines from up to poolSize workers and
// reports, per line, whether it re-verified. Each worker holds a handle for
// one line at a time, so a reader waiting on the pool waits at most one
// re-verification. Workers stop taking lines once ctx is done; lines never
// reached report false. All workers have exited when it returns.
func (r *Registry) reverifyLines(ctx context.Context, pools map[string]poolSlot, pending []commCached) []bool {
	verified := make([]bool, len(pending))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(r.poolSize, len(pending)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				c := pending[i]
				ok, err := r.reverifyLine(ctx, pools[c.fp].pool, c)
				verified[i] = err == nil && ok
			}
		}()
	}
	wg.Wait()
	return verified
}

// reverifyLine replays one cached community's frozen-step sweep on a handle
// of the new generation's pool.
func (r *Registry) reverifyLine(ctx context.Context, p *DetectorPool, c commCached) (bool, error) {
	d, err := p.Acquire(ctx)
	if err != nil {
		return false, err
	}
	defer p.Release(d)
	return d.ReverifyCommunity(ctx, c.stats.Seed, c.community, c.stats.FrozenAt)
}

// commKey is the cache key of one single-seed line.
func commKey(name string, gen, seed int, fp string) string {
	return cacheKey(name, gen, fmt.Sprintf("community:%d", seed), fp)
}

// intersectsSorted reports whether two ascending int slices share an element.
func intersectsSorted(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}
