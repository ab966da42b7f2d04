package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
)

// Executor is the seam between job *lifecycle* (queueing, states, TTL,
// metrics — the Manager's job) and job *execution* (what running a payload
// means — the embedding layer's job). The web server's executor decodes the
// payload, runs the analysis pipeline and builds the HTTP response document;
// the library façade's executor returns the in-process Result. Because the
// Manager only ever hands an Executor plain data, the same payload can
// instead be shipped to a worker node and executed there — the remote
// dispatcher relies on exactly this property.
//
// ctx is cancelled on hard shutdown; progress (never nil) receives coarse
// stage labels for status polling. The returned value becomes the job
// result.
type Executor interface {
	Execute(ctx context.Context, p Payload, progress func(stage string)) (any, error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(ctx context.Context, p Payload, progress func(stage string)) (any, error)

// Execute implements Executor.
func (f ExecutorFunc) Execute(ctx context.Context, p Payload, progress func(stage string)) (any, error) {
	return f(ctx, p, progress)
}

// Document is a finished result encoded once: the bytes every route
// serves for it (two-space indent, trailing newline) and its compact form,
// which the journal's terminal record and the terminal event embed. It is
// built from either form and derives the other on first use. The web
// server's executor returns one, so no path re-encodes the result; a
// dispatching front end wraps a worker's bytes in one and serves them
// verbatim.
type Document struct {
	once            sync.Once
	served, compact []byte
}

// NewDocument wraps a served document; served must not change afterwards.
func NewDocument(served []byte) *Document { return &Document{served: served} }

// CompactDocument wraps a compact document, as json.Marshal or
// json.Compact leaves it; compact must not change afterwards.
func CompactDocument(compact []byte) *Document { return &Document{compact: compact} }

// Served returns the document as the result route serves it; nil when it
// is derived from a compact form that is not valid JSON.
func (d *Document) Served() []byte {
	d.once.Do(d.derive)
	return d.served
}

// Compact returns the document without insignificant whitespace; nil when
// it is derived from a served form that is not valid JSON.
func (d *Document) Compact() []byte {
	d.once.Do(d.derive)
	return d.compact
}

// derive fills in the form the document was not built from: the served
// form is what a JSON encoder with a two-space indent writes.
func (d *Document) derive() {
	var buf bytes.Buffer
	switch {
	case d.compact == nil:
		buf.Grow(len(d.served))
		if json.Compact(&buf, d.served) == nil {
			d.compact = buf.Bytes()
		}
	case d.served == nil:
		buf.Grow(2 * len(d.compact))
		if json.Indent(&buf, d.compact, "", "  ") == nil {
			d.served = append(buf.Bytes(), '\n')
		}
	}
}

// CompactJSON returns a job value's compact JSON: a Document's compact
// form, or the marshalled value; nil if it cannot be encoded.
func CompactJSON(val any) []byte {
	if d, ok := val.(*Document); ok {
		return d.Compact()
	}
	raw, err := json.Marshal(val)
	if err != nil {
		return nil
	}
	return raw
}
