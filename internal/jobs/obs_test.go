package jobs

// Tests for the Manager's observability plane: the replayed-trace stub on
// journal-restored jobs, per-job resource accounting in the status
// document, the queue-stall health watchdog, and the DisableObservability
// switch.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestReplayedTraceStub: a journal-restored terminal job lost its live
// span tree with the old process; its trace route must answer a minimal
// stub marked replayed, with stable ids and the original timestamps —
// and an interrupted job still pending its re-run must answer ErrNotFound
// until it finishes.
func TestReplayedTraceStub(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	jrn := &memJournal{}
	m1, err := New(Config{Workers: 1, QueueSize: 4, Clock: clk.Now, Journal: jrn}, routeExec{
		"ok": func(context.Context, Payload, func(string)) (any, error) { return 1, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(kind("ok"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	st1, _ := m1.Status(id)

	// The live manager served a real trace; the restarted one cannot.
	m2, err := New(Config{Workers: 1, QueueSize: 4, Clock: clk.Now, Journal: jrn}, routeExec{
		"ok": func(context.Context, Payload, func(string)) (any, error) {
			t.Error("restored done job re-ran")
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())

	doc, err := m2.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Replayed {
		t.Error("restored trace not marked replayed")
	}
	if doc.JobID != id {
		t.Errorf("stub job_id = %q, want %q", doc.JobID, id)
	}
	if len(doc.TraceID) != 32 {
		t.Errorf("stub trace_id %q is not 32 hex chars", doc.TraceID)
	}
	if doc.Root == nil || doc.Root.Name != "job" {
		t.Fatalf("stub root = %+v, want the job span", doc.Root)
	}
	if doc.Root.Attrs["replayed"] != "true" {
		t.Errorf("stub root attrs = %v, want replayed=true", doc.Root.Attrs)
	}
	if got := doc.Root.StartUnixNS; got != st1.CreatedAt.UnixNano() {
		t.Errorf("stub start %d, want the journaled creation time %d", got, st1.CreatedAt.UnixNano())
	}
	wantDur := float64(st1.FinishedAt.Sub(st1.CreatedAt)) / float64(time.Millisecond)
	if doc.Root.DurationMS != wantDur {
		t.Errorf("stub duration %.3fms, want %.3fms", doc.Root.DurationMS, wantDur)
	}

	// Repeated fetches are stable: derived ids, not random ones.
	again, err := m2.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if again.TraceID != doc.TraceID || again.Root.SpanID != doc.Root.SpanID {
		t.Error("replayed stub ids not stable across fetches")
	}
}

// TestReplayedPendingJobTraceNotFound: an interrupted job re-enqueued by
// replay answers ErrNotFound while pending, and the replayed stub once
// its re-run reaches a terminal state.
func TestReplayedPendingJobTraceNotFound(t *testing.T) {
	jrn := &memJournal{}
	block := make(chan struct{})
	m1, err := New(Config{Workers: 1, QueueSize: 4, Journal: jrn}, routeExec{
		"slow": func(ctx context.Context, _ Payload, _ func(string)) (any, error) {
			select {
			case <-block:
				return 1, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(kind("slow"))
	if err != nil {
		t.Fatal(err)
	}
	// Hard-cancel the close: the job stays interrupted in the journal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m1.Close(ctx)

	release := make(chan struct{})
	m2, err := New(Config{Workers: 1, QueueSize: 4, Journal: jrn}, routeExec{
		"slow": func(ctx context.Context, _ Payload, _ func(string)) (any, error) {
			select {
			case <-release:
				return 1, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())

	if _, err := m2.Trace(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("trace of a replayed pending job = %v, want ErrNotFound", err)
	}
	close(release)
	waitFor(t, "replayed job to finish", func() bool {
		st, err := m2.Status(id)
		return err == nil && st.State.Terminal()
	})
	doc, err := m2.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	if !doc.Replayed {
		t.Error("re-run replayed job's trace not marked replayed")
	}
}

// TestStatusCarriesResources: a finished job's status reports the
// CPU/allocation cost measured around its execution.
func TestStatusCarriesResources(t *testing.T) {
	m, err := New(Config{Workers: 1, QueueSize: 2}, routeExec{
		"alloc": func(context.Context, Payload, func(string)) (any, error) {
			hold := make([][]byte, 32)
			for i := range hold {
				hold[i] = make([]byte, 64<<10)
			}
			return len(hold), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	id, err := m.Submit(kind("alloc"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool {
		st, err := m.Status(id)
		return err == nil && st.State == StateDone
	})
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resources == nil {
		t.Fatal("finished job has no resources section")
	}
	if st.Resources.HeapAllocBytes < 1<<20 {
		t.Errorf("heap_alloc_bytes = %d, want >= 1MiB after a 2MiB allocation", st.Resources.HeapAllocBytes)
	}
	if st.Resources.CPUUserMS < 0 || st.Resources.CPUSystemMS < 0 {
		t.Errorf("negative CPU accounting: %+v", st.Resources)
	}
}

// TestQueueStallComponentHealth: the queue component degrades when the
// oldest queued job waits past the stall threshold, and recovers when the
// queue drains.
func TestQueueStallComponentHealth(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	release := make(chan struct{})
	m, err := New(Config{Workers: 1, QueueSize: 2, Clock: clk.Now, StallAfter: 30 * time.Second}, routeExec{
		"slow": func(ctx context.Context, _ Payload, _ func(string)) (any, error) {
			select {
			case <-release:
				return 1, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	// First job occupies the lone worker, second sits queued.
	if _, err := m.Submit(kind("slow")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first job running", func() bool { return m.Metrics().Running == 1 })
	if _, err := m.Submit(kind("slow")); err != nil {
		t.Fatal(err)
	}

	if h := m.ComponentHealth()["queue"]; h.Status != HealthOK {
		t.Fatalf("queue health before the threshold = %+v, want ok", h)
	}
	clk.Advance(31 * time.Second)
	h := m.ComponentHealth()["queue"]
	if h.Status != HealthDegraded {
		t.Fatalf("queue health past the threshold = %+v, want degraded", h)
	}
	if !strings.Contains(h.Reason, "stalled") {
		t.Errorf("degraded reason %q does not mention the stall", h.Reason)
	}

	close(release)
	waitFor(t, "queue drained", func() bool {
		mt := m.Metrics()
		return mt.Completed == 2
	})
	if h := m.ComponentHealth()["queue"]; h.Status != HealthOK {
		t.Errorf("queue health after draining = %+v, want ok", h)
	}
}

// TestDisableObservability: the switch strips jobs of their trace and
// resources without touching the job lifecycle itself.
func TestDisableObservability(t *testing.T) {
	m, err := New(Config{Workers: 1, QueueSize: 2, DisableObservability: true}, routeExec{
		"ok": func(context.Context, Payload, func(string)) (any, error) { return 1, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	id, err := m.Submit(kind("ok"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool {
		st, err := m.Status(id)
		return err == nil && st.State == StateDone
	})
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resources != nil {
		t.Errorf("resources present with observability disabled: %+v", st.Resources)
	}
	if _, err := m.Trace(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("trace with observability disabled = %v, want ErrNotFound", err)
	}
}
