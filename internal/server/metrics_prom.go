// Prometheus text exposition for GET /v1/metrics?format=prometheus.
//
// The exposition composes three sources into one scrape:
//
//   - counter/gauge families derived from the same snapshot structs the
//     JSON document serves (jobs.Metrics, artifacts.Metrics and
//     ResultMetrics, the event hub's drop counter) — the numbers agree between the two formats by
//     construction;
//   - the process-wide histogram registry (obs.Default): queue wait, run
//     time, per-stage wall clock, journal append/fsync, dispatch round
//     trips, GA fitness evaluation;
//   - runtime gauges sampled from runtime/metrics (heap, GC, goroutines).
//
// Label cardinality is bounded by design (DESIGN.md §13): the only label
// values are the five pipeline stage names, worker-node URLs (deployment
// sized, not request sized) and two artifact-eviction reasons. Nothing
// per-job or per-clip ever becomes a label.
package server

import (
	"net/http"
	"sort"

	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/pose"
)

// writePrometheus renders the full scrape document.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	s.mu.Lock()
	analyzed := s.analyzed
	s.mu.Unlock()
	jm := s.jobs.Metrics()

	w.Header().Set("Content-Type", obs.ContentType)
	p := obs.NewPromWriter(w)

	p.Counter("slj_clips_analyzed_total",
		"Clips analysed since process start, across the sync and async routes.",
		float64(analyzed))

	p.Gauge("slj_jobs_workers", "Analysis worker pool size.", float64(jm.Workers))
	p.Gauge("slj_jobs_queue_capacity", "Job queue capacity beyond the running jobs.", float64(jm.QueueCapacity))
	p.Gauge("slj_jobs_queue_depth", "Jobs currently waiting in the queue.", float64(jm.QueueDepth))
	p.Gauge("slj_jobs_running", "Jobs currently executing.", float64(jm.Running))
	p.Counter("slj_jobs_submitted_total", "Jobs accepted into the queue.", float64(jm.Submitted))
	p.Counter("slj_jobs_rejected_total", "Submissions refused by a full queue.", float64(jm.Rejected))
	p.Counter("slj_jobs_completed_total", "Jobs finished successfully.", float64(jm.Completed))
	p.Counter("slj_jobs_failed_total", "Jobs finished in failure.", float64(jm.Failed))
	p.Counter("slj_jobs_evicted_total", "Finished jobs evicted after their result TTL.", float64(jm.Evicted))
	p.Counter("slj_journal_append_failures_total",
		"Journal appends that errored after the job was accepted (durability degraded).",
		float64(jm.JournalFailures))

	p.Counter("slj_dispatch_failovers_total",
		"Submissions or recoveries that landed on a node other than the key's primary.",
		float64(jm.Failovers))
	p.Gauge("slj_dispatch_membership_epoch",
		"Monotonic fleet membership epoch; increments on every ring rebuild.",
		float64(jm.MembershipEpoch))

	for _, n := range jm.Nodes {
		healthy := 0.0
		if n.Healthy {
			healthy = 1
		}
		draining := 0.0
		if n.Draining {
			draining = 1
		}
		p.Gauge("slj_dispatch_node_healthy", "Whether the worker node's last probe or submit succeeded.",
			healthy, "node", n.URL)
		p.Gauge("slj_dispatch_node_weight", "Consistent-hash weight of the worker node (vnode multiplier).",
			float64(n.Weight), "node", n.URL)
		p.Gauge("slj_dispatch_node_draining", "Whether the worker node is draining (no new keys routed).",
			draining, "node", n.URL)
		p.Counter("slj_dispatch_node_submitted_total", "Payloads accepted by the worker node.",
			float64(n.Submitted), "node", n.URL)
		p.Counter("slj_dispatch_node_rejected_total", "Backpressure (503) answers from the worker node.",
			float64(n.Rejected), "node", n.URL)
		p.Counter("slj_dispatch_node_completed_total", "Successful terminal results observed on the worker node.",
			float64(n.Completed), "node", n.URL)
		p.Counter("slj_dispatch_node_failed_total", "Failed terminal results observed on the worker node.",
			float64(n.Failed), "node", n.URL)
		p.Counter("slj_dispatch_node_cache_hits_total", "Submissions the worker node answered from its result cache.",
			float64(n.CacheHits), "node", n.URL)
	}

	rm := s.artifacts.ResultMetrics()
	p.Gauge("slj_cache_entries", "Request keys with a stored result.", float64(rm.Entries))
	p.Counter("slj_cache_hits_total", "Result lookups answered from the artifact store.", float64(rm.Hits))
	p.Counter("slj_cache_misses_total", "Result lookups that found nothing.", float64(rm.Misses))
	p.Counter("slj_cache_stored_total", "Results stored in the artifact store.", float64(rm.Stored))

	am := s.artifacts.Metrics()
	p.Gauge("slj_artifacts_blobs", "Blobs currently in the artifact store.", float64(am.Blobs))
	p.Gauge("slj_artifacts_bytes", "Bytes currently held by the artifact store.", float64(am.Bytes))
	p.Counter("slj_artifact_hits_total", "Artifact store lookups answered.", float64(am.Hits))
	p.Counter("slj_artifact_misses_total", "Artifact store lookups that found nothing.", float64(am.Misses))
	p.Counter("slj_artifact_stored_total", "Blobs stored in the artifact store.", float64(am.Stored))
	p.Counter("slj_artifact_evicted_total", "Artifact evictions by reason.",
		float64(am.EvictedTTL), "reason", "ttl")
	p.Counter("slj_artifact_evicted_total", "Artifact evictions by reason.",
		float64(am.EvictedLRU), "reason", "lru")
	p.Counter("slj_artifact_spill_writes_total", "Blobs written to the spill directory.", float64(am.SpillWrites))
	p.Counter("slj_artifact_spill_reads_total", "Memory misses served from the spill directory.", float64(am.SpillReads))
	p.Counter("slj_artifact_pulls_total",
		"Artifact pull round-trips to the originating front end (worker nodes).", float64(am.Pulls))
	p.Counter("slj_artifact_pull_failures_total", "Artifact pulls that failed.", float64(am.PullFailures))

	sm := s.clips.Metrics()
	p.Gauge("slj_clip_sessions_open", "Clip-ingest sessions currently open.", float64(sm.Open))
	p.Counter("slj_clip_sessions_opened_total", "Clip-ingest sessions opened.", float64(sm.Opened))
	p.Counter("slj_clip_sessions_sealed_total", "Clip-ingest sessions sealed.", float64(sm.Sealed))
	p.Counter("slj_clip_sessions_expired_total", "Clip-ingest sessions expired unsealed.", float64(sm.Expired))
	p.Counter("slj_clip_frames_ingested_total", "Frames appended across all ingest sessions.", float64(sm.FramesIngested))

	gm := pose.GAMetrics()
	p.Counter("slj_ga_fitness_memo_hits_total",
		"GA fitness scores answered from the cross-generation memo table.",
		float64(gm.FitnessMemoHits))
	p.Counter("slj_ga_fitness_memo_misses_total",
		"GA fitness scores actually evaluated (memo misses).",
		float64(gm.FitnessMemoMisses))

	if s.replica != nil {
		pm := s.replica.ReplicaMetrics()
		p.Counter("slj_replica_artifacts_pushed_total",
			"Artifact blobs, results included, pushed to ring successors.", float64(pm.Artifacts))
		p.Counter("slj_replica_push_failures_total",
			"Replication pushes that failed after delivery was attempted.", float64(pm.Failures))
		p.Counter("slj_replica_dropped_total",
			"Replication tasks dropped by the sink's bounded queue.", float64(pm.Dropped))
	}

	p.Counter("slj_events_dropped_total",
		"Events dropped by the hub's never-block policy (slow subscribers are resynced instead).",
		float64(s.jobs.EventHub().Dropped()))

	comps := s.componentHealth()
	names := make([]string, 0, len(comps))
	for name := range comps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := 0.0
		if comps[name].Status == jobs.HealthOK {
			v = 1
		}
		p.Gauge("slj_health_component_ok",
			"Whether the deep-health component reports ok (1) or degraded (0).",
			v, "component", name)
	}

	obs.Default.WritePrometheus(p)
	p.WriteRuntime()
	if err := p.Err(); err != nil {
		s.log.Warn("prometheus exposition write failed", "err", err)
	}
}
