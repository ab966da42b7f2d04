package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	sljmotion "github.com/sljmotion/sljmotion"
	"github.com/sljmotion/sljmotion/internal/events"
)

// newTransport is the load generator's connection pool: enough idle
// connections per host that two clients with a stream open each never
// re-dial inside the timed window.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return t
}

// request is one prepared operation: its body was encoded before the
// window opened.
type request struct {
	op   opSpec
	clip *clip // the clip; its frames are kept only for ingest uploads
	// body is the pre-encoded multipart upload of an inline request, or
	// the by-hash analysis body minus the hash of an ingest request.
	body   []byte
	ctype  string
	stages string // pipeline range requested ("" = all)
}

// outcome is what one operation returned.
type outcome struct {
	op    opSpec
	start time.Time
	end   time.Time
	err   error
	// jobID is empty when the submission was answered from the cache.
	jobID    string
	cached   bool
	result   []byte
	notified time.Time // when the terminal event reached the client
	seal     *sljmotion.ClipSeal
}

func (o *outcome) latency() time.Duration { return o.end.Sub(o.start) }

// errRefused marks a 503 answer; like any error it counts as a failed
// operation.
var errRefused = errors.New("refused (503)")

// submitInline POSTs a pre-encoded multipart clip to /v1/jobs.
func submitInline(ctx context.Context, hc *http.Client, base string, body []byte, ctype string, o *outcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ctype)
	return submit(hc, req, o)
}

// submitByHash POSTs a by-reference analysis of a sealed clip to /v1/jobs.
func submitByHash(ctx context.Context, hc *http.Client, base string, doc []byte, o *outcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(doc))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return submit(hc, req, o)
}

// byHashTail encodes everything of a by-reference analysis body but the
// frames hash, which only the seal reveals: byHashBody splices the hash in
// without encoding anything inside the window.
func byHashTail(c *clip, stages string) ([]byte, error) {
	doc := map[string]any{
		"manual_first": map[string]any{"x": c.manual.X, "y": c.manual.Y, "rho": c.manual.Rho[:]},
		"silhouettes":  true,
	}
	if stages == "" {
		doc["poses"] = true
	} else {
		doc["stages"] = stages
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return raw[1:], nil // drop the opening brace
}

func byHashBody(hash string, tail []byte) []byte {
	body := make([]byte, 0, len(tail)+len(hash)+20)
	body = append(body, `{"frames_ref":"`...)
	body = append(body, hash...)
	body = append(body, `",`...)
	return append(body, tail...)
}

func submit(hc *http.Client, req *http.Request, o *outcome) error {
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	switch resp.StatusCode {
	case http.StatusOK:
		o.cached, o.result = true, raw
		return nil
	case http.StatusAccepted:
		var doc struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil || doc.ID == "" {
			return fmt.Errorf("submit: malformed acknowledgement %q", raw)
		}
		o.jobID = doc.ID
		return nil
	case http.StatusServiceUnavailable:
		return errRefused
	default:
		return fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
}

// awaitAndFetch follows the job's event stream to its terminal event, then
// GETs the result document. Completion is learned from the stream, never
// from a poll interval.
func awaitAndFetch(ctx context.Context, hc *http.Client, base string, o *outcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+o.jobID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return fmt.Errorf("events: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	fr := events.NewFrameReader(resp.Body)
	var terminal *events.Event
	for terminal == nil {
		f, err := fr.Next()
		if err != nil {
			resp.Body.Close()
			return fmt.Errorf("events: stream ended before the terminal event: %w", err)
		}
		e, err := f.DecodeEvent()
		if err != nil {
			continue // heartbeat or comment
		}
		if e.Terminal() {
			terminal = &e
		}
	}
	o.notified = time.Now()
	resp.Body.Close()
	if terminal.Type != events.TypeDone {
		return fmt.Errorf("job %s ended %s: %s", o.jobID, terminal.Type, terminal.Error)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+o.jobID+"/result", nil)
	if err != nil {
		return err
	}
	resp, err = hc.Do(req)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("result: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	o.result = raw
	return nil
}

// ingest uploads the clip through a chunked ingest session in five 4-frame
// chunks and seals it. hc is the operation's own client: each call's
// HTTP span hangs under that call's span.
func ingest(hc *http.Client, tr http.RoundTripper, base string, c *clip, rec *recorder, root spanCtx) (*sljmotion.ClipSeal, error) {
	cs, err := sljmotion.OpenClipSession(base, hc)
	if err != nil {
		return nil, err
	}
	call := func(name string, fn func() error) error {
		sc := rec.newChild(root)
		hc.Transport = spanTransport{base: tr, rec: rec, sc: sc, prefix: "http."}
		t0 := time.Now()
		err := fn()
		rec.finish(sc, name, t0, time.Now())
		hc.Transport = spanTransport{base: tr, rec: rec, sc: root, prefix: "http."}
		return err
	}
	const chunk = 4
	for i := 0; i < len(c.frames); i += chunk {
		end := i + chunk
		if end > len(c.frames) {
			end = len(c.frames)
		}
		if err := call("artifacts.append", func() error { return cs.AppendFrames(c.frames[i:end]) }); err != nil {
			return nil, err
		}
	}
	var seal *sljmotion.ClipSeal
	err = call("artifacts.seal", func() (err error) {
		seal, err = cs.Seal()
		return err
	})
	return seal, err
}

// doOp runs one operation against a deployment and records its outcome.
// hashes maps this client's clips to the frames hashes their seals
// returned, for the by-hash repeats of ingest workloads.
func doOp(ctx context.Context, w workload, base string, tr http.RoundTripper, rec *recorder, r request, hashes map[int]string) outcome {
	o := outcome{op: r.op}
	root := rec.newSpan()
	hc := &http.Client{Transport: spanTransport{base: tr, rec: rec, sc: root, prefix: "http."}, Timeout: time.Minute}
	o.start = time.Now()
	o.err = runOp(ctx, w, base, hc, tr, rec, root, r, hashes, &o)
	o.end = time.Now()
	rec.finish(root, "op", o.start, o.end)
	return o
}

func runOp(ctx context.Context, w workload, base string, hc *http.Client, tr http.RoundTripper, rec *recorder, root spanCtx, r request, hashes map[int]string, o *outcome) error {
	if w.fleet {
		hash, ok := hashes[r.op.Clip]
		if !r.op.Repeat {
			seal, err := ingest(hc, tr, base, r.clip, rec, root)
			if err != nil {
				return err
			}
			o.seal, hash, ok = seal, seal.FramesHash, true
			hashes[r.op.Clip] = hash
		}
		if !ok {
			return fmt.Errorf("repeat of clip %d, which this client never sealed", r.op.Clip)
		}
		if err := submitByHash(ctx, hc, base, byHashBody(hash, r.body), o); err != nil {
			return err
		}
	} else if err := submitInline(ctx, hc, base, r.body, r.ctype, o); err != nil {
		return err
	}
	if o.cached {
		return nil
	}
	return awaitAndFetch(ctx, hc, base, o)
}
