package metrics

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"cdrw/internal/trace"
)

// This file carries the serving-side counters of the cdrwd daemon and the
// DetectorPool/Registry layer (internal/serve): request and error counts,
// result-cache hits and misses, singleflight collapses, pool checkout waits,
// a request-latency histogram with p50/p99 estimates, and per-phase
// histograms attributing that latency to walk / sweep / flood / peer-pull /
// cache time. Everything is lock-free (atomics only) so the hot serving
// path pays a handful of uncontended atomic adds per request.

// ServeMetrics aggregates the serving counters of one daemon (or one
// Registry). All methods are safe for concurrent use. The zero value is
// ready to use; NewServeMetrics exists for symmetry with the rest of the
// API.
type ServeMetrics struct {
	requests  atomic.Int64
	errors    atomic.Int64
	cacheHits atomic.Int64
	cacheMiss atomic.Int64
	collapsed atomic.Int64
	poolWaits atomic.Int64
	latency   Histogram

	// phases attributes request time to detection phases, fed from
	// finished request traces (serve flushes each trace's per-phase
	// totals here). Summed across phases, one request's observations
	// reconstruct roughly its wall latency — peer_pull excepted, which
	// is nested inside flood time.
	phases [trace.NumPhases]Histogram

	// Graph-mutation counters (Registry.ApplyDelta): deltas applied, the
	// fate of the affected cache lines, and the two latencies a PATCH is
	// made of — the generation swap, then the re-verification of the
	// intersecting cache lines.
	deltasApplied   atomic.Int64
	deltaKept       atomic.Int64
	deltaReverified atomic.Int64
	deltaEvicted    atomic.Int64
	swap            Histogram
	reverify        Histogram
}

// NewServeMetrics returns a fresh, zeroed counter set.
func NewServeMetrics() *ServeMetrics { return &ServeMetrics{} }

// IncRequest counts one incoming request.
func (m *ServeMetrics) IncRequest() { m.requests.Add(1) }

// IncError counts one failed request.
func (m *ServeMetrics) IncError() { m.errors.Add(1) }

// IncCacheHit counts one result served from the registry cache.
func (m *ServeMetrics) IncCacheHit() { m.cacheHits.Add(1) }

// IncCacheMiss counts one result that had to be computed.
func (m *ServeMetrics) IncCacheMiss() { m.cacheMiss.Add(1) }

// IncCollapsed counts one request collapsed onto an identical in-flight run.
func (m *ServeMetrics) IncCollapsed() { m.collapsed.Add(1) }

// IncPoolWait counts one pool checkout that found no idle detector and had
// to wait.
func (m *ServeMetrics) IncPoolWait() { m.poolWaits.Add(1) }

// IncDeltaApplied counts one edge delta applied to a registered graph.
func (m *ServeMetrics) IncDeltaApplied() { m.deltasApplied.Add(1) }

// AddDeltaLines records the cache-line outcomes of one applied delta: lines
// kept untouched (disjoint community), lines promoted after re-verification,
// and lines evicted.
func (m *ServeMetrics) AddDeltaLines(kept, reverified, evicted int64) {
	m.deltaKept.Add(kept)
	m.deltaReverified.Add(reverified)
	m.deltaEvicted.Add(evicted)
}

// ObserveSwapLatency records how long one delta took from the mutation call
// to the atomic generation swap becoming visible to readers.
func (m *ServeMetrics) ObserveSwapLatency(d time.Duration) { m.swap.Observe(d) }

// ObserveReverifyLatency records how long one delta spent after its swap
// re-verifying and promoting the cache lines it intersected.
func (m *ServeMetrics) ObserveReverifyLatency(d time.Duration) { m.reverify.Observe(d) }

// ObserveLatency records one request's wall time in the histogram.
func (m *ServeMetrics) ObserveLatency(d time.Duration) {
	m.latency.Observe(d)
}

// ObservePhase attributes d to one detection phase's histogram.
// Out-of-range phases are dropped.
func (m *ServeMetrics) ObservePhase(p trace.Phase, d time.Duration) {
	if p >= trace.NumPhases {
		return
	}
	m.phases[p].Observe(d)
}

// PhaseCount reports how many observations phase p has received.
func (m *ServeMetrics) PhaseCount(p trace.Phase) int64 {
	if p >= trace.NumPhases {
		return 0
	}
	return m.phases[p].Count()
}

// ServeSnapshot is a consistent-enough point-in-time copy of the counters
// (each counter is read atomically; the set is not a transaction, which is
// fine for monitoring).
type ServeSnapshot struct {
	Requests     int64
	Errors       int64
	CacheHits    int64
	CacheMisses  int64
	Collapsed    int64
	PoolWaits    int64
	LatencyCount int64
	LatencyMean  time.Duration
	LatencyP50   time.Duration
	LatencyP99   time.Duration

	DeltasApplied        int64
	DeltaLinesKept       int64
	DeltaLinesReverified int64
	DeltaLinesEvicted    int64
	SwapCount            int64
	SwapMean             time.Duration
}

// Snapshot reads every counter and derives the latency quantiles.
func (m *ServeMetrics) Snapshot() ServeSnapshot {
	s := ServeSnapshot{
		Requests:     m.requests.Load(),
		Errors:       m.errors.Load(),
		CacheHits:    m.cacheHits.Load(),
		CacheMisses:  m.cacheMiss.Load(),
		Collapsed:    m.collapsed.Load(),
		PoolWaits:    m.poolWaits.Load(),
		LatencyCount: m.latency.Count(),

		DeltasApplied:        m.deltasApplied.Load(),
		DeltaLinesKept:       m.deltaKept.Load(),
		DeltaLinesReverified: m.deltaReverified.Load(),
		DeltaLinesEvicted:    m.deltaEvicted.Load(),
		SwapCount:            m.swap.Count(),
		SwapMean:             m.swap.Mean(),
	}
	s.LatencyMean = m.latency.Mean()
	s.LatencyP50 = m.latency.Quantile(0.50)
	s.LatencyP99 = m.latency.Quantile(0.99)
	return s
}

// WritePrometheus renders the counters in the Prometheus text exposition
// format, which is also perfectly readable by humans behind `curl /metrics`.
func (m *ServeMetrics) WritePrometheus(w io.Writer) error {
	s := m.Snapshot()
	_, err := fmt.Fprintf(w,
		"# HELP cdrw_requests_total Requests received.\n"+
			"# TYPE cdrw_requests_total counter\n"+
			"cdrw_requests_total %d\n"+
			"# HELP cdrw_errors_total Requests that failed.\n"+
			"# TYPE cdrw_errors_total counter\n"+
			"cdrw_errors_total %d\n"+
			"# HELP cdrw_cache_hits_total Detect results served from the registry cache.\n"+
			"# TYPE cdrw_cache_hits_total counter\n"+
			"cdrw_cache_hits_total %d\n"+
			"# HELP cdrw_cache_misses_total Detect results that had to be computed.\n"+
			"# TYPE cdrw_cache_misses_total counter\n"+
			"cdrw_cache_misses_total %d\n"+
			"# HELP cdrw_collapsed_total Requests collapsed onto an identical in-flight run.\n"+
			"# TYPE cdrw_collapsed_total counter\n"+
			"cdrw_collapsed_total %d\n"+
			"# HELP cdrw_pool_waits_total Pool checkouts that had to wait for an idle detector.\n"+
			"# TYPE cdrw_pool_waits_total counter\n"+
			"cdrw_pool_waits_total %d\n"+
			"# HELP cdrw_latency_seconds Request latency (mean and histogram-estimated quantiles).\n"+
			"# TYPE cdrw_latency_seconds summary\n"+
			"cdrw_latency_seconds{quantile=\"0.5\"} %g\n"+
			"cdrw_latency_seconds{quantile=\"0.99\"} %g\n"+
			"cdrw_latency_seconds_sum %g\n"+
			"cdrw_latency_seconds_count %d\n"+
			"# HELP cdrw_deltas_applied_total Edge deltas applied to registered graphs.\n"+
			"# TYPE cdrw_deltas_applied_total counter\n"+
			"cdrw_deltas_applied_total %d\n"+
			"# HELP cdrw_delta_lines_kept_total Cache lines kept across deltas (community disjoint from the delta).\n"+
			"# TYPE cdrw_delta_lines_kept_total counter\n"+
			"cdrw_delta_lines_kept_total %d\n"+
			"# HELP cdrw_delta_lines_reverified_total Cache lines promoted across deltas after sweep re-verification.\n"+
			"# TYPE cdrw_delta_lines_reverified_total counter\n"+
			"cdrw_delta_lines_reverified_total %d\n"+
			"# HELP cdrw_delta_lines_evicted_total Cache lines evicted by deltas.\n"+
			"# TYPE cdrw_delta_lines_evicted_total counter\n"+
			"cdrw_delta_lines_evicted_total %d\n",
		s.Requests, s.Errors, s.CacheHits, s.CacheMisses, s.Collapsed,
		s.PoolWaits,
		s.LatencyP50.Seconds(), s.LatencyP99.Seconds(),
		(time.Duration(m.latency.SumNS()) * time.Nanosecond).Seconds(),
		s.LatencyCount,
		s.DeltasApplied, s.DeltaLinesKept, s.DeltaLinesReverified,
		s.DeltaLinesEvicted)
	if err != nil {
		return err
	}
	// A PATCH's latency is its swap plus its re-verification.
	for _, h := range []struct {
		name, help string
		h          *Histogram
	}{
		{"cdrw_delta_swap_seconds", "Generation-swap latency of applied deltas.", &m.swap},
		{"cdrw_delta_reverify_seconds", "Post-swap cache-line re-verification latency of applied deltas.", &m.reverify},
	} {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s summary\n", h.name, h.help, h.name); err != nil {
			return err
		}
		if err := h.h.WriteSummary(w, h.name, ""); err != nil {
			return err
		}
	}
	// Per-phase histograms follow the counters. Every phase is rendered
	// even at zero count so scrapers (and the CI smoke greps) see a
	// stable series set from the first scrape.
	if _, err := fmt.Fprint(w,
		"# HELP cdrw_phase_seconds Request time attributed to detection phases (peer_pull is nested inside flood).\n"+
			"# TYPE cdrw_phase_seconds summary\n"); err != nil {
		return err
	}
	for _, p := range trace.Phases() {
		if err := m.phases[p].WriteSummary(w, "cdrw_phase_seconds", `phase="`+p.String()+`"`); err != nil {
			return err
		}
	}
	return nil
}
