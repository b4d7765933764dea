package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeMetricsSnapshot: counters round-trip, and the histogram quantiles
// land within the factor-√2 bucket bound of the true values.
func TestServeMetricsSnapshot(t *testing.T) {
	m := NewServeMetrics()
	m.IncRequest()
	m.IncRequest()
	m.IncError()
	m.IncCacheHit()
	m.IncCacheMiss()
	m.IncCollapsed()
	m.IncPoolWait()
	// 99 observations at 1ms, one at 1s: p50 must sit near 1ms, p99 within
	// a bucket of one of the two modes (the 100-observation rank-99 straddle
	// is allowed to resolve to either).
	for i := 0; i < 99; i++ {
		m.ObserveLatency(time.Millisecond)
	}
	m.ObserveLatency(time.Second)

	s := m.Snapshot()
	if s.Requests != 2 || s.Errors != 1 || s.CacheHits != 1 || s.CacheMisses != 1 ||
		s.Collapsed != 1 || s.PoolWaits != 1 {
		t.Fatalf("counter snapshot wrong: %+v", s)
	}
	if s.LatencyCount != 100 {
		t.Fatalf("latency count %d, want 100", s.LatencyCount)
	}
	if s.LatencyP50 < 500*time.Microsecond || s.LatencyP50 > 2*time.Millisecond {
		t.Fatalf("p50 %v not within a bucket of 1ms", s.LatencyP50)
	}
	if s.LatencyP99 < 500*time.Microsecond || s.LatencyP99 > 2*time.Second {
		t.Fatalf("p99 %v outside the observed range", s.LatencyP99)
	}
	if s.LatencyMean <= 0 {
		t.Fatalf("mean %v not positive", s.LatencyMean)
	}
}

// TestServeMetricsZero: the zero value serves zero quantiles without
// dividing by the empty histogram.
func TestServeMetricsZero(t *testing.T) {
	var m ServeMetrics
	s := m.Snapshot()
	if s.LatencyP50 != 0 || s.LatencyP99 != 0 || s.LatencyMean != 0 {
		t.Fatalf("zero-value quantiles %+v, want zeros", s)
	}
}

// TestServeMetricsPrometheus: the exposition text carries every counter
// family exactly once.
func TestServeMetricsPrometheus(t *testing.T) {
	m := NewServeMetrics()
	m.IncRequest()
	m.ObserveLatency(2 * time.Millisecond)
	m.ObserveSwapLatency(time.Millisecond)
	m.ObserveReverifyLatency(3 * time.Millisecond)
	m.ObserveReverifyLatency(5 * time.Millisecond)
	var b strings.Builder
	if err := m.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, family := range []string{
		"cdrw_requests_total 1",
		"cdrw_errors_total 0",
		"cdrw_cache_hits_total 0",
		"cdrw_cache_misses_total 0",
		"cdrw_collapsed_total 0",
		"cdrw_pool_waits_total 0",
		"cdrw_latency_seconds_count 1",
		"cdrw_delta_swap_seconds_sum 0.001\n",
		"cdrw_delta_swap_seconds_count 1\n",
		`cdrw_delta_swap_seconds{quantile="0.99"}`,
		"cdrw_delta_reverify_seconds_sum 0.008\n",
		"cdrw_delta_reverify_seconds_count 2\n",
		`cdrw_delta_reverify_seconds{quantile="0.5"}`,
	} {
		if !strings.Contains(out, family) {
			t.Fatalf("exposition missing %q:\n%s", family, out)
		}
	}
}

// TestServeMetricsConcurrent hammers every counter from many goroutines;
// the final totals must be exact (the race detector additionally vets the
// atomics under -race).
func TestServeMetricsConcurrent(t *testing.T) {
	m := NewServeMetrics()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.IncRequest()
				m.ObserveLatency(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Requests != workers*each || s.LatencyCount != workers*each {
		t.Fatalf("lost updates: %+v", s)
	}
}
