package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted: the
// smallest sample with at least a q share of the samples at or below it. It
// returns 0 for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// minBeyond is how many samples must lie beyond a reported percentile for it
// to be more than one or two outliers.
const minBeyond = 10

// supportsPercentile reports whether n samples leave at least minBeyond of
// them beyond the q-quantile: p95 needs 200 samples, p50 needs 20.
func supportsPercentile(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msSlice converts durations to fractional milliseconds.
func msSlice(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// tally counts operations attempted and failed, with the reason of the first
// few failures kept for the report. Every operation the benchmark sends
// counts as attempted; a transport error, a non-2xx status, a malformed
// answer and an oracle mismatch each count it as failed. It is safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

// maxReasons bounds the failure reasons kept for the report.
const maxReasons = 8

// attempt records one operation sent.
func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail records that one attempted operation failed, and why.
func (t *tally) fail(reason string) {
	t.mu.Lock()
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, reason)
	}
	t.mu.Unlock()
}

// counts returns the attempted and failed totals.
func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}
