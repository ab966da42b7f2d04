package dispatch

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/jobs"
)

// Replicator pushes finished results (result/v1 artifact blobs) to ring
// successors. It is the worker-side half of successor replication: the
// server invokes it (through the jobs.ReplicaSink seam) whenever it stores
// or serves the result of a job whose payload named a replica target, and
// it copies the bytes to the target's POST /v1/artifacts from a bounded background
// queue — the job's own latency never waits on replication, and a slow or
// dead successor only costs dropped replicas, never wedged workers.
type Replicator struct {
	client *http.Client
	ch     chan replicaTask
	stop   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	seen     map[string]struct{} // target|hash pairs already delivered
	seenList []string            // FIFO of seen keys, bounds the dedup set
	metrics  jobs.ReplicaMetrics
}

// replicaTask is one queued push.
type replicaTask struct {
	target string
	hash   string
	blob   []byte
}

// replicaQueue bounds the push backlog; beyond it, replicas are dropped
// (and counted) rather than blocking the pipeline.
const replicaQueue = 256

// replicaSeenCap bounds the dedup memory.
const replicaSeenCap = 4096

// Replicator is a ReplicaSink.
var _ jobs.ReplicaSink = (*Replicator)(nil)

// NewReplicator starts the push worker. A nil client gets a 30s-timeout
// default.
func NewReplicator(client *http.Client) *Replicator {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	p := &Replicator{
		client: client,
		ch:     make(chan replicaTask, replicaQueue),
		stop:   make(chan struct{}),
		seen:   make(map[string]struct{}),
	}
	p.wg.Add(1)
	go p.run()
	return p
}

// ReplicateArtifact mirrors an artifact blob (jobs.ReplicaSink). Never
// blocks: a full queue drops the push. A hash already delivered to the
// same target is not pushed again — artifacts are content-addressed, so
// one delivery is permanent — but a dropped or failed push is retried by
// the next call.
func (p *Replicator) ReplicateArtifact(target, hash string, blob []byte) {
	if target == "" || len(blob) == 0 || p.delivered(target, hash) {
		return
	}
	select {
	case p.ch <- replicaTask{target: target, hash: hash, blob: blob}:
	default:
		p.mu.Lock()
		p.metrics.Dropped++
		p.mu.Unlock()
	}
}

// ReplicaMetrics reports push counters (jobs.ReplicaSink).
func (p *Replicator) ReplicaMetrics() jobs.ReplicaMetrics {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.metrics
}

// Backlog reports the push queue's current depth and capacity — the
// replication-backlog signal behind the deep-health watchdog: a queue
// sitting near capacity means replicas are about to be dropped.
func (p *Replicator) Backlog() (depth, capacity int) {
	return len(p.ch), cap(p.ch)
}

// Close stops the push worker after draining already-queued tasks.
func (p *Replicator) Close() {
	close(p.stop)
	p.wg.Wait()
}

func (p *Replicator) delivered(target, hash string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.seen[target+"|"+hash]
	return ok
}

func (p *Replicator) run() {
	defer p.wg.Done()
	for {
		select {
		case t := <-p.ch:
			p.push(t)
		case <-p.stop:
			// Drain what was queued before Close; new enqueues may still
			// race in, but the channel read below empties the buffer.
			for {
				select {
				case t := <-p.ch:
					p.push(t)
				default:
					return
				}
			}
		}
	}
}

// push POSTs one blob to the target's content-addressed artifact route
// (the hash is verified there, so a corrupt push cannot poison the
// successor) and records it as delivered only once the target accepted
// it. A second queued copy of a delivered blob is skipped.
func (p *Replicator) push(t replicaTask) {
	if p.delivered(t.target, t.hash) {
		return
	}
	err := p.post(t)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.metrics.Failures++
		return
	}
	p.metrics.Artifacts++
	k := t.target + "|" + t.hash
	p.seen[k] = struct{}{}
	p.seenList = append(p.seenList, k)
	if len(p.seenList) > replicaSeenCap {
		delete(p.seen, p.seenList[0])
		p.seenList = p.seenList[1:]
	}
}

func (p *Replicator) post(t replicaTask) error {
	req, err := http.NewRequest(http.MethodPost, t.target+"/v1/artifacts", bytes.NewReader(t.blob))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	// 200 vs 201 on artifact re-PUT (already stored) are both success.
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica push: %s answered %d", req.URL.Host, resp.StatusCode)
	}
	return nil
}
