package main

import (
	"fmt"
	"strings"
)

// layerMetric is one per-layer metric of the traced run with the end-to-end
// metric and workloads it is predicted to move. BENCHMARK.json lists the
// same names and units; its schema has no field for the prediction, so the
// prediction lives here and in the run's report.
type layerMetric struct {
	name, unit, better, moves string
}

// layerTable is every per-layer metric the traced run reports. A layer a
// workload does not exercise reads 0 on that workload.
var layerTable = []layerMetric{
	{"segmentation.ms_per_clip", "ms", "lower", "latency_p50_ms on seg_journal and ingest_fleet (under 7% of a full_clip operation)"},
	{"background.ms_per_clip", "ms", "lower", "latency_p50_ms on seg_journal and ingest_fleet"},
	{"pose.ms_per_clip", "ms", "lower", "ops_per_s and latency_p50_ms on full_clip (absent elsewhere)"},
	{"ga.evals_per_clip", "count", "lower", "ops_per_s and latency_p50_ms on full_clip (exact count)"},
	{"ga.memo_hit_ratio", "ratio", "higher", "ops_per_s and latency_p50_ms on full_clip"},
	{"pose.evals_per_s", "1/s", "higher", "ops_per_s and latency_p50_ms on full_clip"},
	{"track.ms_per_clip", "ms", "lower", "none (sub-millisecond)"},
	{"scoring.ms_per_clip", "ms", "lower", "none (sub-millisecond)"},
	{"core.unattributed_ms", "ms", "lower", "latency_p50_ms on full_clip"},
	{"jobs.queue_wait_ms", "ms", "lower", "latency_tail_ms on every workload"},
	{"jobs.overhead_ms", "ms", "lower", "latency_p50_ms on every workload"},
	{"cache.hit_ratio", "ratio", "higher", "ops_per_s on seg_journal and ingest_fleet (about 1/4 by construction; 0 on full_clip)"},
	{"journal.append_ms", "ms", "lower", "ops_per_s and latency_p50_ms on seg_journal (flat elsewhere: journal off)"},
	{"journal.terminal_append_ms", "ms", "lower", "ops_per_s and latency_p50_ms on seg_journal (includes fsync)"},
	{"journal.appends_per_job", "count", "lower", "ops_per_s on seg_journal"},
	{"journal.bytes_per_job", "B", "lower", "ops_per_s and latency_p50_ms on seg_journal"},
	{"journal.replay_ms", "ms", "lower", "setup_s on seg_journal"},
	{"server.submit_ms", "ms", "lower", "latency_p50_ms on seg_journal"},
	{"server.result_ms", "ms", "lower", "latency_p50_ms on seg_journal"},
	{"server.request_bytes", "B", "lower", "latency_p50_ms on seg_journal"},
	{"server.response_bytes", "B", "lower", "latency_p50_ms on seg_journal"},
	{"server.overhead_ms", "ms", "lower", "latency_p50_ms on seg_journal"},
	{"events.notify_ms", "ms", "lower", "latency_p50_ms on full_clip and seg_journal"},
	{"artifacts.append_ms", "ms", "lower", "latency_p50_ms on ingest_fleet"},
	{"artifacts.seal_ms", "ms", "lower", "latency_p50_ms on ingest_fleet"},
	{"artifacts.upload_bytes", "B", "lower", "latency_p50_ms on ingest_fleet"},
	{"artifacts.eager_reuse_ratio", "ratio", "higher", "latency_p50_ms on ingest_fleet"},
	{"dispatch.node_requests_per_op", "count", "lower", "ops_per_s and latency_p50_ms on ingest_fleet"},
	{"dispatch.node_hop_ms", "ms", "lower", "ops_per_s and latency_p50_ms on ingest_fleet"},
	{"dispatch.payload_bytes", "B", "lower", "ops_per_s and latency_p50_ms on ingest_fleet"},
	{"dispatch.replica_pushes_per_op", "count", "lower", "ops_per_s on ingest_fleet"},
	{"dispatch.overhead_ms", "ms", "lower", "ops_per_s and latency_p50_ms on ingest_fleet"},
	{"obs.trace_overhead_pct", "%", "lower", "none: the cost of this benchmark's own tracing"},
	{"ladder.stages_ms", "ms", "lower", "latency_p50_ms on every workload (rung 1: direct stage calls)"},
	{"ladder.core_ms", "ms", "lower", "latency_p50_ms on every workload (rung 2: core.Analyzer.Run)"},
	{"ladder.jobs_ms", "ms", "lower", "latency_p50_ms on every workload (rung 3: jobs.Manager)"},
	{"ladder.http_ms", "ms", "lower", "latency_p50_ms on every workload (rung 4: one loopback node)"},
	{"ladder.fleet_ms", "ms", "lower", "latency_p50_ms on ingest_fleet (rung 5: the dispatch fleet)"},
	{"ladder.remainder_ms", "ms", "lower", "latency_p50_ms on every workload (what no rung accounts for)"},
	{"ladder.latency_p50_ms", "ms", "lower", "the untraced window's latency_p50_ms the rungs add up to"},
}

// spanStats summarises the spans of one name.
type spanStats struct {
	n          int
	ms         float64
	sent, recv int64
}

func (s spanStats) meanMS() float64 {
	if s.n == 0 {
		return 0
	}
	return s.ms / float64(s.n)
}

// perOp divides a total by the operation count, 0 without operations.
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// layerMetrics derives the per-layer metrics from the traced window's
// spans, the window outcomes and the ladder. Callers fill in the metrics
// that need the service's own documents (queue wait, notification delay,
// cache hit ratio).
func layerMetrics(w workload, rec *recorder, plain, win windowResult, lad *ladderResult) map[string]metricValue {
	w0, w1 := rec.at(win.start), rec.at(win.end)
	by := map[string]spanStats{}
	var replay span // zero when the workload has no journal
	var hops, clientBytes spanStats
	nodeRequests, replicaPushes := 0, 0
	for _, s := range rec.snapshot() {
		if s.Name == "journal.replay" {
			// The set-up's restart replays the warm-up jobs: the last
			// replay before the window. (Opening a fresh journal replays
			// nothing; the ladder's replays come after the window.)
			if s.Start < w0 && s.Start >= replay.Start {
				replay = s
			}
			continue
		}
		if s.Start < w0 || s.Start > w1 {
			continue // set-up traffic
		}
		st := by[s.Name]
		st.n++
		st.ms += s.ms()
		st.sent += s.Sent
		st.recv += s.Recv
		by[s.Name] = st
		switch {
		case strings.HasPrefix(s.Name, "http."):
			clientBytes.sent += s.Sent
			clientBytes.recv += s.Recv
		case strings.HasPrefix(s.Name, "dispatch."):
			nodeRequests++
			// A relayed event stream stays open until the job ends; it is
			// counted as a request but is not a hop.
			if s.Name != "dispatch.events" {
				hops.n++
				hops.ms += s.ms()
			}
		case strings.HasPrefix(s.Name, "replica."):
			replicaPushes++
		}
	}

	ops, fresh, reused, frames := 0, 0, 0, 0
	for _, o := range win.outcomes {
		if o.err != nil {
			continue
		}
		ops++
		if o.seal != nil {
			fresh++
			reused += o.seal.EagerReused
			frames += o.seal.Frames
		}
	}

	m := map[string]metricValue{}
	set := func(name string, v float64) {
		for _, lm := range layerTable {
			if lm.name == name {
				m[name] = metricValue{v, lm.unit}
				return
			}
		}
		panic("perfbench: undeclared per-layer metric " + name)
	}
	for _, lm := range layerTable {
		set(lm.name, 0)
	}

	set("segmentation.ms_per_clip", median0(lad.stages[0]))
	set("background.ms_per_clip", median0(lad.stages[1]))
	if w.stages == "" {
		set("pose.ms_per_clip", median0(lad.stages[2]))
		set("track.ms_per_clip", median0(lad.stages[3]))
		set("scoring.ms_per_clip", median0(lad.stages[4]))
		set("ga.evals_per_clip", perOp(float64(lad.evals), lad.clips))
		if n := lad.memo.FitnessMemoHits + lad.memo.FitnessMemoMisses; n > 0 {
			set("ga.memo_hit_ratio", float64(lad.memo.FitnessMemoHits)/float64(n))
		}
		if lad.poseMS > 0 {
			set("pose.evals_per_s", float64(lad.evals)/(lad.poseMS/1000))
		}
	}

	top := lad.rungs[len(lad.rungs)-1]
	p50 := median(latencies(plain.outcomes))
	set("core.unattributed_ms", lad.rungs[1]-lad.rungs[0])
	set("jobs.overhead_ms", lad.rungs[2]-lad.rungs[1])
	set("server.overhead_ms", lad.rungs[3]-lad.rungs[2])
	if len(lad.rungs) > 4 {
		set("dispatch.overhead_ms", lad.rungs[4]-lad.rungs[3])
		set("ladder.fleet_ms", lad.rungs[4])
	}
	set("ladder.stages_ms", lad.rungs[0])
	set("ladder.core_ms", lad.rungs[1])
	set("ladder.jobs_ms", lad.rungs[2])
	set("ladder.http_ms", lad.rungs[3])
	set("ladder.remainder_ms", p50-top)
	set("ladder.latency_p50_ms", p50)

	ap, tp := by["journal.append"], by["journal.terminal_append"]
	set("journal.append_ms", ap.meanMS())
	set("journal.terminal_append_ms", tp.meanMS())
	if tp.n > 0 {
		set("journal.appends_per_job", float64(ap.n+tp.n)/float64(tp.n))
		set("journal.bytes_per_job", float64(ap.sent+tp.sent)/float64(tp.n))
	}
	set("journal.replay_ms", replay.ms())

	set("server.submit_ms", by["http.submit"].meanMS())
	set("server.result_ms", by["http.result"].meanMS())
	set("server.request_bytes", perOp(float64(clientBytes.sent), ops))
	set("server.response_bytes", perOp(float64(clientBytes.recv), ops))

	set("artifacts.append_ms", by["artifacts.append"].meanMS())
	set("artifacts.seal_ms", by["artifacts.seal"].meanMS())
	set("artifacts.upload_bytes", perOp(float64(by["http.clips"].sent), fresh))
	if frames > 0 {
		set("artifacts.eager_reuse_ratio", float64(reused)/float64(frames))
	}

	set("dispatch.node_requests_per_op", perOp(float64(nodeRequests), ops))
	set("dispatch.node_hop_ms", hops.meanMS())
	set("dispatch.payload_bytes", perOp(float64(by["dispatch.worker_submit"].sent), by["dispatch.worker_submit"].n))
	set("dispatch.replica_pushes_per_op", perOp(float64(replicaPushes), ops))

	if plain.opsPerSec > 0 {
		set("obs.trace_overhead_pct", 100*(plain.opsPerSec-win.opsPerSec)/plain.opsPerSec)
	}

	sum := m["ladder.stages_ms"].Value + m["core.unattributed_ms"].Value + m["jobs.overhead_ms"].Value +
		m["server.overhead_ms"].Value + m["dispatch.overhead_ms"].Value + m["ladder.remainder_ms"].Value
	fmt.Printf("ladder: stages %.2f + core %.2f + jobs %.2f + server %.2f + dispatch %.2f + remainder %.2f = %.2f ms (window latency_p50_ms %.2f)\n",
		m["ladder.stages_ms"].Value, m["core.unattributed_ms"].Value, m["jobs.overhead_ms"].Value,
		m["server.overhead_ms"].Value, m["dispatch.overhead_ms"].Value, m["ladder.remainder_ms"].Value, sum, p50)
	for _, lm := range layerTable {
		fmt.Printf("  %-32s moves %s\n", lm.name, lm.moves)
	}
	return m
}

// median0 is median with 0 for an empty sample.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
