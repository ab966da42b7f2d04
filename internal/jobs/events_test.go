package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/events"
)

// drainWatch collects a Watch channel to completion with a deadline.
func drainWatch(t *testing.T, ch <-chan events.Event) []events.Event {
	t.Helper()
	var out []events.Event
	deadline := time.After(5 * time.Second)
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, e)
		case <-deadline:
			t.Fatalf("watch never completed; got %d events: %+v", len(out), out)
		}
	}
}

// TestWatchSeesFullLifecycle: a watcher subscribed at submission observes
// queued → running → every stage → done, in order, with monotonic
// sequence numbers, and the channel closes after the terminal event.
func TestWatchSeesFullLifecycle(t *testing.T) {
	release := make(chan struct{})
	m, err := New(Config{Workers: 1, QueueSize: 4}, routeExec{
		"staged": func(ctx context.Context, p Payload, progress func(string)) (any, error) {
			<-release
			for _, st := range []string{"segmentation", "pose", "tracking", "scoring"} {
				progress(st)
			}
			return "ok", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	id, err := m.Submit(kind("staged"))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := m.Watch(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	got := drainWatch(t, ch)

	wantTypes := []events.Type{
		events.TypeQueued, events.TypeRunning,
		events.TypeStage, events.TypeStage, events.TypeStage, events.TypeStage,
		events.TypeDone,
	}
	if len(got) != len(wantTypes) {
		t.Fatalf("got %d events, want %d: %+v", len(got), len(wantTypes), got)
	}
	wantStages := []string{"", "", "segmentation", "pose", "tracking", "scoring", ""}
	for i, e := range got {
		if e.Type != wantTypes[i] || e.Stage != wantStages[i] {
			t.Errorf("event %d: %s/%q, want %s/%q", i, e.Type, e.Stage, wantTypes[i], wantStages[i])
		}
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.JobID != id {
			t.Errorf("event %d: job %q, want %q", i, e.JobID, id)
		}
	}
	// The terminal event guarantees the result is fetchable.
	if _, err := m.Result(id); err != nil {
		t.Fatalf("result after terminal event: %v", err)
	}
}

// TestWatchAlreadyFinishedJob delivers the retained history — ending in
// the terminal event — immediately.
func TestWatchAlreadyFinishedJob(t *testing.T) {
	m, err := New(Config{Workers: 1, QueueSize: 1}, routeExec{
		"fail": func(ctx context.Context, p Payload, progress func(string)) (any, error) {
			return nil, errors.New("ga diverged")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	id, err := m.Submit(kind("fail"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job failure", func() bool {
		st, err := m.Status(id)
		return err == nil && st.State == StateFailed
	})
	ch, err := m.Watch(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drainWatch(t, ch)
	last := got[len(got)-1]
	if last.Type != events.TypeFailed || last.Error != "ga diverged" {
		t.Errorf("terminal event: %+v", last)
	}
}

// TestWatchResume: a client that saw the first events reconnects with its
// last sequence number and receives exactly the rest.
func TestWatchResume(t *testing.T) {
	release := make(chan struct{})
	m, err := New(Config{Workers: 1, QueueSize: 1}, routeExec{
		"staged": func(ctx context.Context, p Payload, progress func(string)) (any, error) {
			progress("segmentation")
			<-release
			progress("pose")
			return "ok", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	id, err := m.Submit(kind("staged"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first stage", func() bool {
		st, err := m.Status(id)
		return err == nil && st.Stage == "segmentation"
	})
	// Resume after seq 3 (queued, running, stage segmentation).
	ch, err := m.Watch(context.Background(), id, 3)
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	got := drainWatch(t, ch)
	if len(got) != 2 || got[0].Stage != "pose" || got[1].Type != events.TypeDone {
		t.Fatalf("resumed stream: %+v", got)
	}
	if got[0].Seq != 4 || got[1].Seq != 5 {
		t.Errorf("resumed seqs: %d, %d, want 4, 5", got[0].Seq, got[1].Seq)
	}
}

func TestWatchUnknownJob(t *testing.T) {
	m, err := New(Config{Workers: 1, QueueSize: 1}, routeExec{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())
	if _, err := m.Watch(context.Background(), "deadbeef", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("watch of unknown id: %v, want ErrNotFound", err)
	}
	if m.hub.Subscribers() != 0 {
		t.Error("failed watch leaked a subscription")
	}
}

// TestWatchEviction: the TTL sweep publishes an evicted event on the
// job's stream, and the evicted job can no longer be watched.
func TestWatchEviction(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m, err := New(Config{Workers: 1, QueueSize: 1, ResultTTL: time.Minute, Clock: clk.Now}, routeExec{
		"ok": func(ctx context.Context, p Payload, progress func(string)) (any, error) { return "ok", nil },
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
	// A client resuming at the terminal sequence number (reconnect after
	// the server closed its completed stream) gets the terminal snapshot
	// immediately — it must not idle until eviction.
	ch, err := m.Watch(context.Background(), id, 3) // queued, running, done
	if err != nil {
		t.Fatal(err)
	}
	got := drainWatch(t, ch)
	if len(got) != 1 || got[0].Type != events.TypeSnapshot || !got[0].Terminal() {
		t.Fatalf("terminal resume stream: %+v", got)
	}
	// The eviction itself is still published on the job's stream (a
	// Watch ends at the terminal event, so read the hub directly).
	sub, err := m.hub.Subscribe(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	clk.Advance(2 * time.Minute)
	if _, err := m.Status(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job not evicted: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for {
		e, err := sub.Next(ctx)
		if err != nil {
			t.Fatalf("eviction never reached the job's stream: %v", err)
		}
		if e.JobID != id {
			t.Fatalf("job stream carried %+v", e)
		}
		if e.Type == events.TypeEvicted {
			break
		}
	}
	if _, err := m.Watch(context.Background(), id, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("watch after eviction: %v, want ErrNotFound", err)
	}
}

// TestReplaySeedsTerminalEvents: after a journal replay, finished jobs are
// immediately streamable — the stream opens onto the terminal event with
// the original timestamp.
func TestReplaySeedsTerminalEvents(t *testing.T) {
	jrn := &memJournal{}
	exec := routeExec{
		"ok": func(ctx context.Context, p Payload, progress func(string)) (any, error) { return "v1", nil },
	}
	m1, err := New(Config{Workers: 1, QueueSize: 2, Journal: jrn}, exec)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m1.Submit(kind("ok"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool {
		st, err := m1.Status(id)
		return err == nil && st.State == StateDone
	})
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Config{Workers: 1, QueueSize: 2, Journal: jrn}, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	ch, err := m2.Watch(context.Background(), id, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := drainWatch(t, ch)
	if len(got) != 1 || got[0].Type != events.TypeDone {
		t.Fatalf("restored job stream: %+v", got)
	}
	st, err := m2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].At.Equal(*st.FinishedAt) {
		t.Errorf("seeded terminal event at %v, want the original finish %v", got[0].At, *st.FinishedAt)
	}
}

// TestStatusCarriesPerJobTiming: queue_wait_ms and run_ms surface on the
// job snapshot once the job starts/finishes.
func TestStatusCarriesPerJobTiming(t *testing.T) {
	clk := &fakeClock{now: time.Unix(2000, 0)}
	gate := make(chan struct{})
	m, err := New(Config{Workers: 1, QueueSize: 4, Clock: clk.Now}, routeExec{
		"wait": func(ctx context.Context, p Payload, progress func(string)) (any, error) {
			<-gate
			return "ok", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	// First job occupies the worker; the second queues behind it.
	first, err := m.Submit(kind("wait"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first running", func() bool {
		st, _ := m.Status(first)
		return st.State == StateRunning
	})
	second, err := m.Submit(kind("wait"))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Status(second); st.QueueWaitMS != 0 || st.RunMS != 0 {
		t.Errorf("queued job must not report timing yet: %+v", st)
	}
	clk.Advance(250 * time.Millisecond) // the second job's queue wait
	close(gate)
	waitFor(t, "both done", func() bool {
		s1, _ := m.Status(first)
		s2, _ := m.Status(second)
		return s1.State == StateDone && s2.State == StateDone
	})
	st, err := m.Status(second)
	if err != nil {
		t.Fatal(err)
	}
	if st.QueueWaitMS < 250 {
		t.Errorf("queue_wait_ms = %v, want >= 250", st.QueueWaitMS)
	}
	// The listing carries the same numbers.
	listed := m.Jobs(JobFilter{})
	for _, ls := range listed {
		if ls.ID == second && ls.QueueWaitMS != st.QueueWaitMS {
			t.Errorf("listing timing %v != status timing %v", ls.QueueWaitMS, st.QueueWaitMS)
		}
	}
}

// TestJobFilterCursor pins the cursor predicate: strictly-after semantics
// in the shared newest-first order, stable under eviction of earlier rows.
func TestJobFilterCursor(t *testing.T) {
	t0 := time.Unix(3000, 0)
	f := JobFilter{AfterCreated: t0, AfterID: "bb"}
	cases := []struct {
		created time.Time
		id      string
		want    bool
	}{
		{t0.Add(time.Second), "aa", false}, // newer → before the cursor page
		{t0, "aa", false},                  // same instant, smaller id → already served
		{t0, "bb", false},                  // the cursor row itself
		{t0, "cc", true},                   // same instant, larger id → next page
		{t0.Add(-time.Second), "aa", true}, // older → next page
	}
	for _, c := range cases {
		if got := f.AfterCursor(c.created, c.id); got != c.want {
			t.Errorf("AfterCursor(%v, %q) = %v, want %v", c.created, c.id, got, c.want)
		}
	}
	if !(JobFilter{}).AfterCursor(t0, "zz") {
		t.Error("no cursor must keep everything")
	}
	if (JobFilter{AfterID: "x"}).HasCursor() != true || (JobFilter{}).HasCursor() != false {
		t.Error("HasCursor")
	}
}
