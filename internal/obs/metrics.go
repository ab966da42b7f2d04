// Prometheus-style metrics: a process-wide registry of bucketed
// histograms fed from hot paths via atomics, and a text-exposition writer
// (format version 0.0.4) that also renders counter/gauge families derived
// from existing snapshot structs. Flat counters stay where they already
// live (jobs.Metrics, artifacts.Metrics, …); the registry only owns the
// latency distributions those snapshots cannot express.
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

// DefBuckets are the classic Prometheus duration buckets, in seconds.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// IOBuckets suit sub-millisecond storage operations (journal append,
// fsync), in seconds.
var IOBuckets = []float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.5, 1}

// Histogram is a fixed-bucket histogram safe for concurrent observation.
// Bucket counts are stored non-cumulatively and cumulated at exposition.
type Histogram struct {
	name    string
	help    string
	labels  []string  // alternating key, value; fixed at registration
	buckets []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one value (typically seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry holds named histograms. The zero value is not usable; use
// NewRegistry or the package Default.
type Registry struct {
	mu    sync.Mutex
	hists map[string]*Histogram
}

// Default is the process-wide registry every instrumented package feeds.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Histogram returns the histogram for the name + fixed label pairs,
// creating it on first use. The help string and buckets of the first
// registration win. labels alternate key, value.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	key := name + "\x00" + strings.Join(labels, "\x00")
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	h := &Histogram{
		name:    name,
		help:    help,
		labels:  labels,
		buckets: buckets,
		counts:  make([]atomic.Uint64, len(buckets)+1),
	}
	r.hists[key] = h
	return h
}

// WritePrometheus renders every histogram of the registry in text
// exposition format, sorted by name then label set so every scrape is
// deterministic and a family's samples stay contiguous.
func (r *Registry) WritePrometheus(w *PromWriter) {
	r.mu.Lock()
	keys := make([]string, 0, len(r.hists))
	for k := range r.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hists := make([]*Histogram, len(keys))
	for i, k := range keys {
		hists[i] = r.hists[k]
	}
	r.mu.Unlock()
	for _, h := range hists {
		w.Histogram(h)
	}
}

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromWriter renders metric families in the Prometheus text format,
// emitting each family's HELP/TYPE header once.
type PromWriter struct {
	w    io.Writer
	seen map[string]bool
	err  error
}

// NewPromWriter wraps w. Write errors are sticky; check Err at the end.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) family(name, help, typ string) {
	if p.seen[name] {
		return
	}
	p.seen[name] = true
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Counter emits one sample of a counter family. labels alternate
// key, value; the family header is written on the first sample.
func (p *PromWriter) Counter(name, help string, value float64, labels ...string) {
	p.family(name, help, "counter")
	p.sample(name, value, labels)
}

// Gauge emits one sample of a gauge family.
func (p *PromWriter) Gauge(name, help string, value float64, labels ...string) {
	p.family(name, help, "gauge")
	p.sample(name, value, labels)
}

func (p *PromWriter) sample(name string, value float64, labels []string) {
	p.printf("%s%s %s\n", name, renderLabels(labels), formatFloat(value))
}

// Histogram emits a full histogram family: cumulative buckets, sum, count.
func (p *PromWriter) Histogram(h *Histogram) {
	p.family(h.name, h.help, "histogram")
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		p.printf("%s%s %d\n", h.name+"_bucket", renderLabels(append(append([]string{}, h.labels...), "le", formatFloat(ub))), cum)
	}
	cum += h.counts[len(h.buckets)].Load()
	p.printf("%s%s %d\n", h.name+"_bucket", renderLabels(append(append([]string{}, h.labels...), "le", "+Inf")), cum)
	p.printf("%s%s %s\n", h.name+"_sum", renderLabels(h.labels), formatFloat(h.Sum()))
	p.printf("%s%s %d\n", h.name+"_count", renderLabels(h.labels), h.Count())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
