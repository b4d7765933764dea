// Package serve is the concurrent serving layer over the single-goroutine
// Detector: a bounded pool of warmed detectors per graph (DetectorPool), a
// registry of named graphs with per-option-fingerprint pools, result caching
// and singleflight collapsing (Registry), and the HTTP/JSON surface the
// cdrwd daemon mounts (NewHandler).
//
// The design premise comes straight from the core package's contract: a
// Detector is built once per graph and retains its engines, degree index and
// sweep scratch across calls, so repeat serving on one handle is
// allocation-free — but a Detector is not safe for concurrent use. The pool
// turns that into a concurrent front end by keeping N long-lived handles and
// lending each to exactly one request at a time: the PR 3/4 reuse contracts
// then hold per handle under arbitrary concurrent load, with no per-request
// engine construction anywhere. The immutable per-graph tables (degree
// index, inverse-degree flood table) are shared across all N handles through
// one warmed rw.SharedIndex per pool — per graph generation, when pools come
// from the Registry — so warm-up cost and resident bytes per handle stay
// independent of the pool size.
//
// Registered graphs mutate in place through Registry.ApplyDelta (HTTP:
// PATCH /graphs/{name}/edges): the next CSR generation is double-buffered
// off the serving copy and swapped in atomically, with incremental cache
// invalidation — single-seed lines disjoint from the delta survive,
// intersecting ones are re-verified by replaying their walk and only the
// ladder suffix of their frozen sweep that can decide the answer
// (core.Detector.ReverifyCommunity), and only failures recompute.
// Re-verification runs on up to the pool size of workers, one pool handle
// per line, and promotes the survivors in their original FIFO order once
// all are done. See docs/ARCHITECTURE.md for the mutation lifecycle.
package serve

import (
	"context"
	"fmt"
	"iter"

	"cdrw/internal/core"
	"cdrw/internal/graph"
	"cdrw/internal/metrics"
	"cdrw/internal/rw"
)

// DetectorPool is a concurrency-safe pool of warmed Detectors over one
// graph. All handles share the (immutable) graph and are built from the same
// options, so every handle computes bit-identical results for the same
// request — which one serves a call is unobservable. Admission is bounded by
// the pool size: at most Size requests run concurrently, and checkout waits
// (context-aware) when every handle is lent out.
type DetectorPool struct {
	g        *graph.Graph
	settings core.Settings
	handles  chan *core.Detector
	size     int
	m        *metrics.ServeMetrics
}

// NewDetectorPool builds size detectors over g with the given options and
// parks them in the pool. Options are resolved and validated once, exactly
// like core.NewDetector. All handles share one warmed immutable index bundle
// (built here), so pool warm-up pays the O(n) index builds once rather than
// per handle; engines inside each handle still warm up on its first request
// and stay warm for the handle's life.
func NewDetectorPool(g *graph.Graph, size int, opts ...core.Option) (*DetectorPool, error) {
	return NewDetectorPoolWithIndex(g, size, nil, opts...)
}

// NewDetectorPoolWithIndex is NewDetectorPool with a caller-owned shared
// index bundle: the Registry hands each graph generation's bundle to every
// pool of that generation, so even pools with different option fingerprints
// share one set of tables. ix nil builds a fresh bundle for this pool; the
// bundle is warmed here either way and appended after opts, so it wins over
// any caller-supplied WithSharedIndex (one pool always shares one bundle).
func NewDetectorPoolWithIndex(g *graph.Graph, size int, ix *rw.SharedIndex, opts ...core.Option) (*DetectorPool, error) {
	if size < 1 {
		return nil, fmt.Errorf("serve: pool size %d must be positive", size)
	}
	if ix == nil {
		ix = rw.NewSharedIndex(g)
	}
	ix.Warm()
	all := make([]core.Option, 0, len(opts)+1)
	all = append(all, opts...)
	all = append(all, core.WithSharedIndex(ix))
	p := &DetectorPool{
		g:       g,
		handles: make(chan *core.Detector, size),
		size:    size,
	}
	for i := 0; i < size; i++ {
		d, err := core.NewDetector(g, all...)
		if err != nil {
			return nil, err
		}
		d.Warm()
		p.settings = d.Settings()
		p.handles <- d
	}
	return p, nil
}

// SetMetrics points the pool's wait counter at m. Call it before serving
// (the Registry wires it at pool construction); nil disables counting.
func (p *DetectorPool) SetMetrics(m *metrics.ServeMetrics) { p.m = m }

// Graph returns the graph every handle serves.
func (p *DetectorPool) Graph() *graph.Graph { return p.g }

// Settings returns the resolved option snapshot every handle runs with.
func (p *DetectorPool) Settings() core.Settings { return p.settings }

// Size returns the pool's handle count — its admission bound.
func (p *DetectorPool) Size() int { return p.size }

// Idle returns the number of handles currently parked in the pool.
func (p *DetectorPool) Idle() int { return len(p.handles) }

// Acquire checks a detector handle out of the pool, waiting when all are
// lent out until one frees or ctx is done. The caller owns the handle
// exclusively and must Release it (also on error paths) — Detect and
// DetectCommunity wrap this pattern for the common cases.
func (p *DetectorPool) Acquire(ctx context.Context) (*core.Detector, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	select {
	case d := <-p.handles:
		return d, nil
	default:
	}
	if p.m != nil {
		p.m.IncPoolWait()
	}
	select {
	case d := <-p.handles:
		return d, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("serve: %w", ctx.Err())
	}
}

// Release returns a handle obtained from Acquire to the pool. More
// releases than acquires is a caller bug — the pool would hand the same
// handle to two requests at once — so it panics loudly instead of
// corrupting the admission bound.
func (p *DetectorPool) Release(d *core.Detector) {
	select {
	case p.handles <- d:
	default:
		panic("serve: Release without matching Acquire")
	}
}

// Detect checks out a handle, runs a full pool-loop detection, and returns
// the handle. The Result is freshly allocated by the Detector and safe to
// retain; for a fixed seed it is byte-identical to a fresh solo Detector's.
func (p *DetectorPool) Detect(ctx context.Context) (*core.Result, error) {
	d, err := p.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer p.Release(d)
	return d.Detect(ctx)
}

// DetectCommunity checks out a handle and computes the community containing
// seed s. Unlike Detector.DetectCommunity — whose result aliases the
// handle's buffer — the returned slice is a copy, safe to retain after the
// handle goes back to serving other requests.
func (p *DetectorPool) DetectCommunity(ctx context.Context, s int) ([]int, core.CommunityStats, error) {
	d, err := p.Acquire(ctx)
	if err != nil {
		return nil, core.CommunityStats{}, err
	}
	defer p.Release(d)
	out, stats, err := d.DetectCommunity(ctx, s)
	if err != nil {
		return nil, stats, err
	}
	return append([]int(nil), out...), stats, nil
}

// Stream checks out a handle and yields detections as they freeze, exactly
// like Detector.Stream; the handle is held for the whole iteration and
// returned when the range ends (normally, by break, or on error). When no
// handle frees before ctx is done, the sequence yields exactly one error.
func (p *DetectorPool) Stream(ctx context.Context) iter.Seq2[core.Detection, error] {
	return func(yield func(core.Detection, error) bool) {
		d, err := p.Acquire(ctx)
		if err != nil {
			yield(core.Detection{}, err)
			return
		}
		defer p.Release(d)
		for det, err := range d.Stream(ctx) {
			if !yield(det, err) {
				return
			}
		}
	}
}
