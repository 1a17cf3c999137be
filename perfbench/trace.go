package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around an exported function. Spans of one trial or job share
// their Op id; Parent is the index of the enclosing span (-1 for the root
// span of an operation).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory; nothing is written until the run ends.
// A nil tracer records nothing, which is how untraced runs skip tracing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index; end closes it. A nil tracer
// returns -1 and ignores end.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records an already measured span.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	return len(t.spans) - 1
}

// layerTimes returns, per span name, the summed self time (span time minus
// the part of it covered by its child spans), the summed root-span time, and
// the coverage: the share of root-span time covered by child spans.
func (t *tracer) layerTimes() (self map[string]time.Duration, root time.Duration, coverage float64) {
	self = make(map[string]time.Duration)
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	var covered time.Duration
	for i, s := range t.spans {
		c := coveredBy(t.spans, children[i])
		self[s.Name] += s.dur() - c
		if s.Parent < 0 {
			root += s.dur()
			covered += c
		}
	}
	if root > 0 {
		coverage = float64(covered) / float64(root)
	}
	return self, root, coverage
}

// coveredBy is the length of the union of the given spans' intervals.
func coveredBy(spans []span, idx []int) time.Duration {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{spans[i].Start, spans[i].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	total += cur[1] - cur[0]
	return time.Duration(total)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
