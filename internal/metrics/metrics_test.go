package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotone(t *testing.T) {
	last := -1
	for _, d := range []time.Duration{
		0, 100, time.Microsecond, 3 * time.Microsecond, time.Millisecond,
		40 * time.Millisecond, time.Second, time.Minute, time.Hour,
	} {
		i := bucketIndex(d)
		if i < last {
			t.Fatalf("bucketIndex not monotone at %v: %d < %d", d, i, last)
		}
		if i < 0 || i >= numBuckets {
			t.Fatalf("bucketIndex(%v) = %d out of range", d, i)
		}
		last = i
	}
	// Every duration must land inside [floor(i), floor(i+1)) except the
	// open-ended overflow bucket.
	for _, d := range []time.Duration{time.Microsecond, 7 * time.Millisecond, 3 * time.Second} {
		i := bucketIndex(d)
		if d < bucketFloor(i) || (i < numBuckets-1 && d >= bucketFloor(i+1)) {
			t.Errorf("%v in bucket %d [%v, %v)", d, i, bucketFloor(i), bucketFloor(i+1))
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast samples, 10 slow ones: p50 must sit near 1ms, p99 near 1s.
	for i := 0; i < 90; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Second)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50 < 512*time.Microsecond || s.P50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", s.P50)
	}
	if s.P99 < 512*time.Millisecond || s.P99 > 2*time.Second {
		t.Errorf("p99 = %v, want ~1s", s.P99)
	}
	if s.Mean <= 0 || s.Sum <= 0 {
		t.Errorf("mean/sum = %v/%v", s.Mean, s.Sum)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 || s.Mean != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Inc()
	if c.Value() != 2 {
		t.Errorf("counter = %d", c.Value())
	}
	var g Gauge
	g.Inc()
	g.Inc()
	g.Dec()
	if g.Value() != 1 {
		t.Errorf("gauge = %d", g.Value())
	}
}
