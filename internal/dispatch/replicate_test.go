package dispatch

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// waitReplica polls the replicator's counters until ok holds.
func waitReplica(t *testing.T, p *Replicator, what string, ok func(jobs.ReplicaMetrics) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !ok(p.ReplicaMetrics()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: replica metrics %+v", what, p.ReplicaMetrics())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatorRetriesFailedPush: a push the target refused is not
// remembered as delivered, so the next ReplicateArtifact of the same hash
// is pushed again — and once delivered, it is not pushed a third time.
func TestReplicatorRetriesFailedPush(t *testing.T) {
	var calls atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	}))
	defer target.Close()
	p := NewReplicator(nil)

	p.ReplicateArtifact(target.URL, "h1", []byte("blob"))
	waitReplica(t, p, "first push fails", func(m jobs.ReplicaMetrics) bool { return m.Failures == 1 })
	p.ReplicateArtifact(target.URL, "h1", []byte("blob"))
	waitReplica(t, p, "retry delivers", func(m jobs.ReplicaMetrics) bool { return m.Artifacts == 1 })
	p.ReplicateArtifact(target.URL, "h1", []byte("blob"))
	p.Close() // drains the queue
	if got := calls.Load(); got != 2 {
		t.Errorf("target saw %d pushes, want 2 (one refused, one delivered, then deduplicated)", got)
	}
}

// TestReplicatorRetriesDroppedPush: a push dropped on a full queue is not
// remembered as delivered either.
func TestReplicatorRetriesDroppedPush(t *testing.T) {
	release := make(chan struct{})
	var delivered atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		delivered.Add(1)
		w.WriteHeader(http.StatusCreated)
	}))
	defer target.Close()
	p := NewReplicator(nil)
	defer p.Close()

	// One push occupies the worker, replicaQueue more fill the queue, and
	// the next is dropped.
	p.ReplicateArtifact(target.URL, "busy", []byte("blob"))
	waitReplica(t, p, "worker busy", func(jobs.ReplicaMetrics) bool { d, _ := p.Backlog(); return d == 0 })
	for i := 0; i < replicaQueue; i++ {
		p.ReplicateArtifact(target.URL, fmt.Sprintf("fill%d", i), []byte("blob"))
	}
	p.ReplicateArtifact(target.URL, "dropped", []byte("blob"))
	if m := p.ReplicaMetrics(); m.Dropped != 1 {
		t.Fatalf("replica metrics %+v, want one drop", m)
	}
	close(release)
	waitReplica(t, p, "queue drains", func(m jobs.ReplicaMetrics) bool { return m.Artifacts == replicaQueue+1 })
	p.ReplicateArtifact(target.URL, "dropped", []byte("blob"))
	waitReplica(t, p, "dropped hash delivered", func(m jobs.ReplicaMetrics) bool { return m.Artifacts == replicaQueue+2 })
}
