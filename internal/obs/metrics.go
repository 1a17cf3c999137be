// Package obs is the shared observability layer: a zero-dependency metrics
// core (counters, gauges, fixed-bucket histograms with atomic hot paths and
// Prometheus text-format exposition) and a sampled engine phase profiler.
// The sim engine, the sdrd job manager, and the HTTP layer all record into
// the same primitives, so /metrics and the sdrsim -profile-steps block report
// from one source instead of parallel ad-hoc instruments.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use; Inc/Add are single atomic adds, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down, stored as atomic bits.
// The zero value is ready to use and reads 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (CAS loop; delta may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets (an implicit
// +Inf bucket catches overflow). Observe is a bucket search plus two atomic
// adds; Sum accumulates via CAS on float bits. All methods are safe for
// concurrent use.
type Histogram struct {
	bounds  []float64 // strictly increasing finite upper bounds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExponentialBuckets returns count upper bounds starting at start and
// multiplying by factor: start, start·factor, …
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, count >= 1")
	}
	bs := make([]float64, count)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}

// DefBuckets are general-purpose latency-in-seconds bounds (5ms … ~40s).
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 40}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

type series struct {
	labels  string // rendered `k="v",k2="v2"` without braces, "" when unlabeled
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

func (f *family) find(labels string) *series {
	for _, s := range f.series {
		if s.labels == labels {
			return s
		}
	}
	return nil
}

// Registry holds named metric families, each with one or more label series.
// Registration is get-or-create: asking twice for the same name and labels
// returns the same metric, so callers can register lazily on hot-ish paths
// (e.g. per-status-code request counters). Registering the same name with a
// different kind panics — that is a programming error, not runtime input.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	return f
}

// renderLabels turns k1,v1,k2,v2 pairs into the exposition label body.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: labels must be key,value pairs")
	}
	var b strings.Builder
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Counter returns the counter for name with the given label pairs, creating
// it on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindCounter)
	ls := renderLabels(labels)
	if s := f.find(ls); s != nil {
		return s.counter
	}
	s := &series{labels: ls, counter: &Counter{}}
	f.series = append(f.series, s)
	return s.counter
}

// Gauge returns the gauge for name with the given label pairs, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGauge)
	ls := renderLabels(labels)
	if s := f.find(ls); s != nil {
		return s.gauge
	}
	s := &series{labels: ls, gauge: &Gauge{}}
	f.series = append(f.series, s)
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time —
// for values that already live elsewhere (queue depth, cache sizes). A
// second registration with the same name and labels keeps the first fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindGaugeFunc)
	ls := renderLabels(labels)
	if f.find(ls) != nil {
		return
	}
	f.series = append(f.series, &series{labels: ls, gaugeFn: fn})
}

// Histogram returns the histogram for name with the given label pairs,
// creating it with the given upper bounds on first use (later calls reuse
// the existing buckets and ignore the bounds argument).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram)
	ls := renderLabels(labels)
	if s := f.find(ls); s != nil {
		return s.hist
	}
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	s := &series{labels: ls, hist: newHistogram(bounds)}
	f.series = append(f.series, s)
	return s.hist
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): # HELP / # TYPE headers, one line per
// series, cumulative _bucket/_sum/_count lines for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.labels), s.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(s.labels), ftoa(s.gauge.Value()))
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced(s.labels), ftoa(s.gaugeFn()))
		return err
	case kindHistogram:
		h := s.hist
		var cum uint64
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedLe(s.labels, ftoa(bound)), cum); err != nil {
				return err
			}
		}
		cum += h.buckets[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, bracedLe(s.labels, "+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(s.labels), ftoa(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(s.labels), h.Count())
		return err
	}
	return nil
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func bracedLe(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return "{" + labels + `,le="` + le + `"}`
}

func ftoa(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
