// Package metrics provides the small, allocation-free instruments the
// serving tier reports through the server's /metrics endpoint: a
// fixed-bucket exponential latency histogram with quantile estimation,
// and plain atomic counters/gauges. Everything here is safe for
// concurrent use and cheap enough to sit on the per-request hot path —
// an Observe is one atomic add per bucket plus two for count/sum.
package metrics

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers 1µs..~67s in powers of two, plus an underflow bucket
// (index 0, <1µs) and an overflow bucket (the last, >=2^26µs).
const numBuckets = 28

// bucketFloor is the lower bound of bucket i in nanoseconds: bucket 0 is
// [0, 1µs), bucket i>=1 is [2^(i-1)µs, 2^i µs).
func bucketFloor(i int) time.Duration {
	if i == 0 {
		return 0
	}
	return time.Duration(1<<(i-1)) * time.Microsecond
}

// bucketIndex maps a duration to its bucket.
func bucketIndex(d time.Duration) int {
	us := d / time.Microsecond
	if us < 1 {
		return 0
	}
	i := bits.Len64(uint64(us)) // 1µs -> 1, 2-3µs -> 2, ...
	if i >= numBuckets {
		return numBuckets - 1
	}
	return i
}

// Histogram is a lock-free exponential-bucket latency histogram.
// The zero value is ready to use.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sumNs   atomic.Uint64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(uint64(d))
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// reporting: counters are read bucket by bucket without a global lock, so
// a snapshot taken under concurrent Observe calls may be off by the
// handful of samples that landed mid-read — fine for monitoring.
type HistogramSnapshot struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	// Mean is Sum/Count (0 when empty).
	Mean time.Duration `json:"mean_ns"`
	P50  time.Duration `json:"p50_ns"`
	P95  time.Duration `json:"p95_ns"`
	P99  time.Duration `json:"p99_ns"`

	buckets [numBuckets]uint64
}

// Snapshot copies the histogram state and computes the summary quantiles.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range s.buckets {
		s.buckets[i] = h.buckets[i].Load()
		s.Count += s.buckets[i]
	}
	s.Sum = time.Duration(h.sumNs.Load())
	if s.Count > 0 {
		s.Mean = s.Sum / time.Duration(s.Count)
	}
	s.P50 = s.quantile(0.50)
	s.P95 = s.quantile(0.95)
	s.P99 = s.quantile(0.99)
	return s
}

// Quantile estimates the p-quantile (0 < p <= 1) by linear interpolation
// inside the bucket the rank falls into. The estimate is bounded by the
// bucket edges, so it is within a factor of two of the true value — the
// right fidelity for a trend dashboard, at zero per-sample cost.
func (s *HistogramSnapshot) quantile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	var seen float64
	for i, c := range s.buckets {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if seen+fc >= rank {
			lo := float64(bucketFloor(i))
			hi := float64(bucketFloor(i + 1))
			if i == numBuckets-1 {
				hi = lo * 2 // open-ended overflow: extrapolate one doubling
			}
			frac := (rank - seen) / fc
			return time.Duration(lo + (hi-lo)*frac)
		}
		seen += fc
	}
	return bucketFloor(numBuckets)
}

// Counter is an atomic monotonically increasing counter. The zero value
// is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic up/down gauge. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Inc increments the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
