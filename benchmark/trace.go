package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share OpID;
// Parent indexes the span that was open when this one started (-1 for
// the op's root).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start"`
	EndNS   int64  `json:"end"`
	Parent  int    `json:"parent"`
	OpID    int    `json:"op_id"`
}

// recorder keeps spans in memory until the run ends. It is used by one
// goroutine (the in-process replay has one client). A nil or disabled
// recorder records nothing, which is how the untraced replay runs the
// identical code path.
type recorder struct {
	enabled bool
	epoch   time.Time
	spans   []span
	open    int // index of the innermost open span, -1 at top level
	opID    int
	counts  map[string]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: -1, counts: map[string]int{}}
}

var noop = func() {}

// span opens a span and returns the function that closes it.
func (r *recorder) span(name string) func() {
	if r == nil || !r.enabled {
		return noop
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, StartNS: int64(time.Since(r.epoch)), Parent: r.open, OpID: r.opID})
	r.open = idx
	return func() {
		r.spans[idx].EndNS = int64(time.Since(r.epoch))
		r.open = r.spans[idx].Parent
	}
}

// child records time that was accumulated piecewise inside the open span
// (the row-sink callbacks of one query) as one child span ending now, so
// that the parent's self time excludes it. Its start is synthetic.
func (r *recorder) child(name string, d time.Duration) {
	if r == nil || !r.enabled {
		return
	}
	end := int64(time.Since(r.epoch))
	r.spans = append(r.spans, span{Name: name, StartNS: end - int64(d), EndNS: end, Parent: r.open, OpID: r.opID})
}

// count adds to a named counter recorded at the same boundary as a span.
func (r *recorder) count(name string, n int) {
	if r == nil || !r.enabled {
		return
	}
	r.counts[name] += n
}

// selfTimes returns, per span name, the summed self time in nanoseconds:
// each span's duration minus the part covered by its direct children.
func (r *recorder) selfTimes() map[string]int64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]int64{}
	for i, s := range r.spans {
		out[s.Name] += s.EndNS - s.StartNS - child[i]
	}
	return out
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"spans": r.spans, "counts": r.counts}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- sample statistics ---

// quantile returns the q-quantile (0..1) of xs by linear interpolation;
// xs is sorted in place. Zero samples give 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
