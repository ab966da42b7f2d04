package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public entry point. Op is the operation that
// caused it — the id of the operation's root span — or -1 when the call
// happened inside the service (a journal append, a dispatcher or
// replicator request) where the causing operation is not visible from
// outside.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the recorder's epoch
	End    float64 `json:"end_ms"`
	Sent   int64   `json:"sent,omitempty"` // request or record bytes
	Recv   int64   `json:"recv,omitempty"` // response bytes
}

func (s span) ms() float64 { return s.End - s.Start }

// spanCtx is an allocated span: its id, its parent's id and its
// operation. Leaf spans recorded under it take it as their parent.
type spanCtx struct {
	id, parent, op int64
}

// noOp is the span context of service-internal calls.
var noOp = spanCtx{op: -1}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced mode: every method is a no-op.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) float64 {
	return float64(t.Sub(r.epoch)) / float64(time.Millisecond)
}

// newSpan allocates the id of an operation's root span, which is also the
// operation's id, so children can name it before it ends.
func (r *recorder) newSpan() spanCtx {
	if r == nil {
		return noOp
	}
	id := r.ids.Add(1)
	return spanCtx{id: id, op: id}
}

// newChild allocates a span under parent that has children of its own.
func (r *recorder) newChild(parent spanCtx) spanCtx {
	if r == nil {
		return noOp
	}
	return spanCtx{id: r.ids.Add(1), parent: parent.id, op: parent.op}
}

// finish records a span allocated by newSpan or newChild.
func (r *recorder) finish(sc spanCtx, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.add(span{ID: sc.id, Parent: sc.parent, Op: sc.op, Name: name, Start: r.at(start), End: r.at(end)})
}

// record adds a completed child span under sc.
func (r *recorder) record(name string, sc spanCtx, start, end time.Time, sent, recv int64) {
	if r == nil {
		return
	}
	r.add(span{ID: r.ids.Add(1), Parent: sc.id, Op: sc.op, Name: name,
		Start: r.at(start), End: r.at(end), Sent: sent, Recv: recv})
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are merged
// first, so time two concurrent children share is subtracted once.
func selfTimes(spans []span) map[int64]float64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := 0.0
		curLo, curHi := 0.0, 0.0
		open := false
		for _, c := range cs {
			lo, hi := c.Start, c.End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi <= lo {
				continue
			}
			switch {
			case !open:
				curLo, curHi, open = lo, hi, true
			case lo <= curHi:
				if hi > curHi {
					curHi = hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = lo, hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[s.ID] = s.ms() - covered
	}
	return out
}

// routeKind classifies a request into the kind of layer call it makes.
func routeKind(method, path string) string {
	switch {
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/result"):
		return "result"
	case method == http.MethodPost && (path == "/v1/jobs" || path == "/v1/analyze"):
		return "submit"
	case path == "/v1/worker/jobs":
		return "worker_submit"
	case path == "/v1/worker/replica":
		return "replica"
	case strings.HasPrefix(path, "/v1/clips"):
		return "clips"
	case strings.HasPrefix(path, "/v1/artifacts"):
		return "artifacts"
	case strings.HasPrefix(path, "/v1/jobs/"):
		return "status"
	default:
		return "other"
	}
}

// spanTransport records one span per HTTP request, named prefix + the
// request's routeKind, from the request leaving the client until its
// response body is closed, with the bytes sent and received.
type spanTransport struct {
	base   http.RoundTripper
	rec    *recorder
	sc     spanCtx
	prefix string
}

func (t spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.rec == nil {
		return t.base.RoundTrip(req)
	}
	name := t.prefix + routeKind(req.Method, req.URL.Path)
	start := time.Now()
	sent := req.ContentLength
	if sent < 0 {
		sent = 0
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.rec.record(name, t.sc, start, time.Now(), sent, 0)
		return nil, err
	}
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		t.rec.record(name, t.sc, start, time.Now(), sent, n)
	}}
	return resp, nil
}

// countedBody counts response bytes and reports them once, on Close.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// serviceClient is an HTTP client for requests the service itself makes —
// the dispatcher's calls into worker nodes ("dispatch." spans) and the
// replicators' pushes ("replica." spans) — recorded outside any operation.
func serviceClient(rec *recorder, prefix string) *http.Client {
	return &http.Client{Timeout: 30 * time.Second,
		Transport: spanTransport{base: http.DefaultTransport, rec: rec, sc: noOp, prefix: prefix}}
}

// timedJournal decorates the jobs.Journal handed to the service with a
// span per append and replay. An append span's Sent is the exact length of
// the JSON line the file journal writes for the entry.
type timedJournal struct {
	inner jobs.Journal
	rec   *recorder
}

func (j timedJournal) Append(e jobs.JournalEntry) error {
	t0 := time.Now()
	err := j.inner.Append(e)
	name := "journal.append"
	if e.Op.Terminal() {
		name = "journal.terminal_append"
	}
	j.rec.record(name, noOp, t0, time.Now(), entryBytes(e), 0)
	return err
}

func (j timedJournal) Replay(fn func(e jobs.JournalEntry) error) error {
	t0 := time.Now()
	err := j.inner.Replay(fn)
	j.rec.record("journal.replay", noOp, t0, time.Now(), 0, 0)
	return err
}

func (j timedJournal) Sync() error { return j.inner.Sync() }

var _ jobs.Journal = timedJournal{}

// entryBytes is the length of the entry's JSON line without re-encoding
// the megabyte payload it may carry: the small fields encoded, plus the
// pre-encoded payload and result, which the encoder copies verbatim.
func entryBytes(e jobs.JournalEntry) int64 {
	payload, result := len(e.Payload), len(e.Result)
	e.Payload, e.Result = nil, nil
	raw, err := json.Marshal(e)
	if err != nil {
		return 0
	}
	n := int64(len(raw)) + 1 // trailing newline
	if payload > 0 {
		n += int64(len(`,"payload":`) + payload)
	}
	if result > 0 {
		n += int64(len(`,"result":`) + result)
	}
	return n
}

// traceDump is the span file written when a traced run ends.
type traceDump struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Env      envInfo            `json:"env"`
	Spans    []span             `json:"spans"`
	SelfMS   map[string]float64 `json:"self_ms_by_name"`
	Metrics  map[string]float64 `json:"per_layer"`
}

func writeDump(path string, d traceDump) error {
	self := selfTimes(d.Spans)
	d.SelfMS = make(map[string]float64)
	for _, s := range d.Spans {
		d.SelfMS[s.Name] += self[s.ID]
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
