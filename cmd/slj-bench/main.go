// Command slj-bench regenerates every figure and table of the paper's
// evaluation plus the ablations of DESIGN.md §4, printing paper-vs-measured
// rows for each (the data behind EXPERIMENTS.md).
//
// Usage:
//
//	slj-bench [-seed S] [-figures] [-only ID]
//	slj-bench -json [-fast] [-seed S]
//	slj-bench -json [-fast] -compare BENCH_pipeline.json [-compare-threshold 25]
//
// -figures additionally prints the ASCII figure artefacts. -only restricts
// the run to one experiment id (F1..F7, T1, T2, T2est, A1..A4).
//
// -compare diffs the fresh perf document against a committed baseline
// (the BENCH trajectory series): matching rows — segmentation and
// end-to-end frames/sec, journal jobs/sec, dispatch round-trip latency,
// event-bus throughput — are reported with their deltas on stderr, and
// any regression beyond -compare-threshold percent exits nonzero.
//
// -json switches to the performance mode: instead of the experiment
// reports, it times the concurrency hot paths — per-frame segmentation at
// increasing worker counts, the end-to-end analysis sequential vs.
// parallel, the remote dispatch round trip over an in-process two-node
// worker pool (submit → hash-route → poll → result, cold and cache-hit),
// the durable-journal overhead on the async job path (jobs/sec with
// the journal off, on, and on with fsync-per-terminal), the streaming
// clip-ingest path (chunked upload + seal wall clock, inline vs by-hash
// dispatch payload bytes, and the by-hash analyze round trip cold and
// cache-hit), and the observability-plane
// overhead (jobs/sec with tracing, per-job resource accounting and SLO
// observation on vs off; -compare fails if it exceeds 5%) — and emits one
// machine-readable JSON document (schema slj-bench-perf/v1, frames/sec
// per configuration) on stdout, the data behind BENCH_*.json trajectory
// tracking. -fast trims the GA budget for quick comparisons.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sljmotion/sljmotion/internal/artifacts"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/events"
	"github.com/sljmotion/sljmotion/internal/experiments"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/journal"
	"github.com/sljmotion/sljmotion/internal/obs"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/server"
	"github.com/sljmotion/sljmotion/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slj-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed      = flag.Int64("seed", 1, "workload seed")
		figures   = flag.Bool("figures", false, "print ASCII figure artefacts")
		only      = flag.String("only", "", "run a single experiment id")
		jsonMode  = flag.Bool("json", false, "emit machine-readable perf JSON instead of experiment reports")
		fast      = flag.Bool("fast", false, "trim the GA budget in -json mode")
		compare   = flag.String("compare", "", "baseline perf JSON (e.g. BENCH_pipeline.json) to diff the fresh run against; implies -json")
		threshold = flag.Float64("compare-threshold", 25, "regression threshold for -compare, in percent")
	)
	flag.Parse()

	if *jsonMode || *compare != "" {
		return runPerf(*seed, *fast, *compare, *threshold)
	}

	type exp struct {
		id  string
		run func() (*experiments.Report, error)
	}
	all := []exp{
		{"F1", func() (*experiments.Report, error) { return experiments.Figure1(*seed) }},
		{"F2", func() (*experiments.Report, error) { return experiments.Figure2(*seed) }},
		{"F3", func() (*experiments.Report, error) { return experiments.Figure3(*seed) }},
		{"F4", func() (*experiments.Report, error) { return experiments.Figure4() }},
		{"F5", func() (*experiments.Report, error) { return experiments.Figure5() }},
		{"F6", func() (*experiments.Report, error) { return experiments.Figure6(*seed) }},
		{"F7", func() (*experiments.Report, error) {
			rep, _, err := experiments.Figure7(*seed)
			return rep, err
		}},
		{"T1", func() (*experiments.Report, error) { return experiments.Table1() }},
		{"T2", func() (*experiments.Report, error) {
			rep, _, err := experiments.Table2(*seed, false)
			return rep, err
		}},
		{"T2est", func() (*experiments.Report, error) {
			rep, _, err := experiments.Table2(*seed, true)
			return rep, err
		}},
		{"A1", func() (*experiments.Report, error) {
			rep, _, err := experiments.AblationSeeding(*seed)
			return rep, err
		}},
		{"A2", func() (*experiments.Report, error) { return experiments.AblationBackground(*seed) }},
		{"A3", func() (*experiments.Report, error) { return experiments.AblationShadow(*seed) }},
		{"A4", func() (*experiments.Report, error) { return experiments.AblationTracking(*seed) }},
	}

	failures := 0
	for _, e := range all {
		if *only != "" && e.id != *only {
			continue
		}
		rep, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Print(rep.String())
		if *figures && len(rep.Figures) > 0 {
			captions := make([]string, 0, len(rep.Figures))
			for c := range rep.Figures {
				captions = append(captions, c)
			}
			sort.Strings(captions)
			for _, c := range captions {
				fmt.Printf("  [%s]\n%s\n", c, rep.Figures[c])
			}
		}
		if !rep.OK() {
			failures++
		}
		fmt.Println()
	}
	if failures > 0 {
		fmt.Printf("%d experiment(s) had mismatching rows\n", failures)
	}
	return nil
}

// perfDoc is the machine-readable output of -json mode. NumCPU,
// GoMaxProcs and GoVersion are measurement provenance: a row measured at
// go_max_procs:1 reads as flat scaling however many workers it spawned,
// and without the provenance stamped into the document such a baseline is
// indistinguishable from a genuine scaling regression.
type perfDoc struct {
	Schema        string             `json:"schema"`
	NumCPU        int                `json:"num_cpu"`
	GoMaxProcs    int                `json:"go_max_procs"`
	GoVersion     string             `json:"go_version"`
	Seed          int64              `json:"seed"`
	Fast          bool               `json:"fast"`
	Frames        int                `json:"frames"`
	Width         int                `json:"width"`
	Height        int                `json:"height"`
	Segmentation  []perfSample       `json:"segmentation"`
	EndToEnd      []perfE2E          `json:"end_to_end"`
	Dispatch      *perfDispatch      `json:"dispatch,omitempty"`
	Fleet         *perfFleet         `json:"fleet,omitempty"`
	Journal       *perfJournal       `json:"journal,omitempty"`
	Events        *perfEvents        `json:"events,omitempty"`
	Ingest        *perfIngest        `json:"ingest,omitempty"`
	Observability *perfObservability `json:"observability,omitempty"`
}

// perfIngest measures the streaming clip-ingest path against the inline
// upload it replaces: the chunked upload + seal wall clock, the dispatch
// payload size of a by-hash submission versus the same clip inline, and
// the by-hash analyze round trip cold (memo-assisted pipeline run) and
// resubmitted (result-cache hit).
type perfIngest struct {
	Frames       int     `json:"frames"`
	Chunks       int     `json:"chunks"`
	UploadSealMS float64 `json:"upload_seal_ms"`
	// InlinePayloadBytes vs ByHashPayloadBytes is the point of the
	// artifact store: the by-hash dispatch payload carries two content
	// hashes and a pose where the inline one carries every pixel.
	InlinePayloadBytes int       `json:"inline_payload_bytes"`
	ByHashPayloadBytes int       `json:"byhash_payload_bytes"`
	ByHashColdMS       perfStats `json:"byhash_cold_ms"`
	ByHashCacheHitMS   perfStats `json:"byhash_cache_hit_ms"`
}

// perfEvents measures the job event bus: one publisher fanning events
// over concurrent firehose subscribers (the dashboard pattern), pure
// in-memory — the ceiling on per-stage progress streaming.
type perfEvents struct {
	Events          int     `json:"events"`
	Subscribers     int     `json:"subscribers"`
	PublishPerSec   float64 `json:"publish_per_sec"`
	DeliveredPerSec float64 `json:"delivered_per_sec"`
	// Delivered counts events actually received across subscribers; the
	// drop-and-resync policy may discard under extreme pressure.
	Delivered int `json:"delivered"`
}

// perfObservability measures the cost of the observability plane on the
// async job path: segmentation-only jobs through an in-process Manager
// with tracing, per-job resource accounting and SLO observation on (the
// production default) versus everything disabled.
type perfObservability struct {
	Jobs          int     `json:"jobs"`
	OnJobsPerSec  float64 `json:"on_jobs_per_sec"`
	OffJobsPerSec float64 `json:"off_jobs_per_sec"`
	// OverheadPct is the throughput cost of observability; the -compare
	// guard fails when it exceeds observabilityOverheadMaxPct.
	OverheadPct float64 `json:"overhead_pct"`
}

// observabilityOverheadMaxPct is the absolute -compare guard on the
// observability section, independent of the percentage threshold: spans,
// resource snapshots and SLO observation together must cost under 5% of
// job throughput.
const observabilityOverheadMaxPct = 5.0

// perfJournal measures the durable-journal overhead on the async job
// path: segmentation-only jobs through an in-process Manager with no
// journal, with an unfsynced journal, and with the production policy
// (fsync on every terminal transition).
type perfJournal struct {
	Jobs            int     `json:"jobs"`
	OffJobsPerSec   float64 `json:"off_jobs_per_sec"`
	OnJobsPerSec    float64 `json:"on_jobs_per_sec"`
	FsyncJobsPerSec float64 `json:"fsync_jobs_per_sec"`
	// OverheadPct is the throughput cost of the production policy versus
	// no journal at all.
	OverheadPct float64 `json:"journal_overhead_pct"`
}

// perfDispatch times the remote dispatch round trip over an in-process
// two-node worker pool: cold submissions run the pipeline on the routed
// node; hits are identical resubmissions answered from that node's result
// cache.
type perfDispatch struct {
	Nodes      int                `json:"nodes"`
	RoundTrips int                `json:"round_trips"`
	ColdMS     perfStats          `json:"cold_ms"`
	CacheHitMS perfStats          `json:"cache_hit_ms"`
	NodeStats  []jobs.NodeMetrics `json:"node_metrics"`
}

// perfFleet times the elastic-fleet failover path (DESIGN.md §16): a clip
// computed on its ring primary, the primary killed, and the identical
// resubmission completing on the successor — once without replication (the
// successor recomputes the pipeline) and once with it (the successor
// answers from its replicated result cache). The gap between the two rows
// is what successor replication buys on node death.
type perfFleet struct {
	Rounds               int       `json:"rounds"`
	FailoverRecomputeMS  perfStats `json:"failover_recompute_ms"`
	FailoverReplicaHitMS perfStats `json:"failover_replica_hit_ms"`
}

// perfStats summarises a latency sample in milliseconds.
type perfStats struct {
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func statsOf(samples []float64) perfStats {
	if len(samples) == 0 {
		return perfStats{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	var sum float64
	for _, s := range sorted {
		sum += s
	}
	return perfStats{
		MeanMS: sum / float64(len(sorted)),
		P50MS:  sorted[len(sorted)/2],
		MaxMS:  sorted[len(sorted)-1],
	}
}

// perfSample is one segmentation timing at a fixed worker count.
// GoMaxProcs is the scheduler width the row actually ran under — workers
// beyond it time-slice one another instead of running in parallel.
type perfSample struct {
	Workers        int     `json:"workers"`
	Reps           int     `json:"reps"`
	SecondsPerClip float64 `json:"seconds_per_clip"`
	FramesPerSec   float64 `json:"frames_per_sec"`
	GoMaxProcs     int     `json:"go_max_procs"`
}

// perfE2E is one end-to-end analysis timing at a fixed parallelism.
type perfE2E struct {
	Parallelism  int     `json:"parallelism"`
	Seconds      float64 `json:"seconds"`
	FramesPerSec float64 `json:"frames_per_sec"`
	GoMaxProcs   int     `json:"go_max_procs"`
}

// runPerf times the concurrent hot paths on the canonical synthetic clip
// and prints one JSON document. With a baseline path it additionally
// reports per-row deltas on stderr, erroring past the regression
// threshold.
func runPerf(seed int64, fast bool, baselinePath string, thresholdPct float64) error {
	params := synth.DefaultJumpParams()
	params.Seed = seed
	v, err := synth.Generate(params)
	if err != nil {
		return err
	}
	maxprocs := runtime.GOMAXPROCS(0)
	doc := perfDoc{
		Schema:     "slj-bench-perf/v1",
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: maxprocs,
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Fast:       fast,
		Frames:     len(v.Frames),
		Width:      v.Frames[0].W,
		Height:     v.Frames[0].H,
	}

	workerCounts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	pipe, err := segmentation.New(segmentation.DefaultConfig())
	if err != nil {
		return err
	}
	for _, w := range workerCounts {
		if w > maxprocs {
			fmt.Fprintf(os.Stderr,
				"slj-bench: warning: workers=%d exceeds GOMAXPROCS=%d; the workers time-slice instead of running in parallel, so this row will read as flat scaling\n",
				w, maxprocs)
		}
		// Repeat until the sample is long enough to time reliably.
		const minSample = 300 * time.Millisecond
		reps := 0
		start := time.Now()
		for time.Since(start) < minSample {
			if _, err := pipe.RunWorkers(v.Frames, w); err != nil {
				return err
			}
			reps++
		}
		perClip := time.Since(start).Seconds() / float64(reps)
		doc.Segmentation = append(doc.Segmentation, perfSample{
			Workers:        w,
			Reps:           reps,
			SecondsPerClip: perClip,
			FramesPerSec:   float64(len(v.Frames)) / perClip,
			GoMaxProcs:     maxprocs,
		})
	}

	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	for _, par := range []int{1, runtime.NumCPU()} {
		cfg := core.DefaultConfig()
		cfg.Parallelism = par
		if fast {
			cfg.Pose.Population = 40
			cfg.Pose.Generations = 40
			cfg.Pose.Patience = 10
			cfg.Pose.RefineRounds = 1
		}
		an, err := core.New(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := an.Analyze(v.Frames, manual); err != nil {
			return err
		}
		secs := time.Since(start).Seconds()
		doc.EndToEnd = append(doc.EndToEnd, perfE2E{
			Parallelism:  par,
			Seconds:      secs,
			FramesPerSec: float64(len(v.Frames)) / secs,
			GoMaxProcs:   maxprocs,
		})
		if par == runtime.NumCPU() {
			break // single-core host: one sample is the whole story
		}
	}

	disp, err := runDispatchPerf(seed)
	if err != nil {
		return err
	}
	doc.Dispatch = disp

	fl, err := runFleetPerf(seed)
	if err != nil {
		return err
	}
	doc.Fleet = fl

	jl, err := runJournalPerf(v)
	if err != nil {
		return err
	}
	doc.Journal = jl

	doc.Events = runEventsPerf()

	ing, err := runIngestPerf(v)
	if err != nil {
		return err
	}
	doc.Ingest = ing

	ob, err := runObservabilityPerf(v)
	if err != nil {
		return err
	}
	doc.Observability = ob

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if baselinePath != "" {
		return compareBaseline(doc, baselinePath, thresholdPct)
	}
	return nil
}

// runEventsPerf times the event bus: one publisher, four firehose
// subscribers draining concurrently.
func runEventsPerf() *perfEvents {
	const (
		nevents = 100000
		subs    = 4
	)
	hub := events.NewHub(events.Config{SubscriberBuffer: 4096, MaxSubscribers: subs, HistoryPerJob: 8})
	var delivered atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < subs; i++ {
		sub, err := hub.Subscribe("", 0)
		if err != nil {
			return nil
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := sub.Next(ctx); err != nil {
					return
				}
				delivered.Add(1)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < nevents; i++ {
		hub.Publish(events.Event{
			Type:  events.TypeStage,
			JobID: fmt.Sprintf("job-%02d", i%64),
			Stage: "segmentation",
		})
	}
	publishSecs := time.Since(start).Seconds()
	hub.Close()
	wg.Wait()
	totalSecs := time.Since(start).Seconds()
	return &perfEvents{
		Events:          nevents,
		Subscribers:     subs,
		PublishPerSec:   float64(nevents) / publishSecs,
		DeliveredPerSec: float64(delivered.Load()) / totalSecs,
		Delivered:       int(delivered.Load()),
	}
}

// compareRow is one comparable measurement of a perf document.
type compareRow struct {
	name string
	old  float64
	new  float64
	// higherBetter: throughput rows regress downward, latency rows upward.
	higherBetter bool
}

// compareBaseline diffs the fresh document against a committed baseline,
// reporting every matching row and erroring when any regresses beyond the
// threshold.
func compareBaseline(doc perfDoc, path string, thresholdPct float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("compare baseline: %w", err)
	}
	var base perfDoc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("compare baseline %s: %w", path, err)
	}
	var rows []compareRow
	for _, b := range base.Segmentation {
		for _, n := range doc.Segmentation {
			if n.Workers == b.Workers {
				rows = append(rows, compareRow{
					name: fmt.Sprintf("segmentation workers=%d frames/sec", b.Workers),
					old:  b.FramesPerSec, new: n.FramesPerSec, higherBetter: true,
				})
			}
		}
	}
	// End-to-end rows only compare at matching GA budgets: a -fast run
	// against a full-budget baseline would always read as a huge "speedup".
	if doc.Fast == base.Fast {
		for _, b := range base.EndToEnd {
			for _, n := range doc.EndToEnd {
				if n.Parallelism == b.Parallelism {
					rows = append(rows, compareRow{
						name: fmt.Sprintf("end_to_end parallelism=%d frames/sec", b.Parallelism),
						old:  b.FramesPerSec, new: n.FramesPerSec, higherBetter: true,
					})
				}
			}
		}
	}
	if base.Journal != nil && doc.Journal != nil {
		rows = append(rows,
			compareRow{name: "journal off jobs/sec", old: base.Journal.OffJobsPerSec, new: doc.Journal.OffJobsPerSec, higherBetter: true},
			compareRow{name: "journal on jobs/sec", old: base.Journal.OnJobsPerSec, new: doc.Journal.OnJobsPerSec, higherBetter: true},
			compareRow{name: "journal fsync jobs/sec", old: base.Journal.FsyncJobsPerSec, new: doc.Journal.FsyncJobsPerSec, higherBetter: true},
		)
	}
	if base.Dispatch != nil && doc.Dispatch != nil {
		rows = append(rows,
			compareRow{name: "dispatch cold mean ms", old: base.Dispatch.ColdMS.MeanMS, new: doc.Dispatch.ColdMS.MeanMS},
			compareRow{name: "dispatch cache-hit mean ms", old: base.Dispatch.CacheHitMS.MeanMS, new: doc.Dispatch.CacheHitMS.MeanMS},
		)
	}
	if base.Fleet != nil && doc.Fleet != nil {
		rows = append(rows,
			compareRow{name: "fleet failover recompute mean ms", old: base.Fleet.FailoverRecomputeMS.MeanMS, new: doc.Fleet.FailoverRecomputeMS.MeanMS},
			compareRow{name: "fleet failover replica-hit mean ms", old: base.Fleet.FailoverReplicaHitMS.MeanMS, new: doc.Fleet.FailoverReplicaHitMS.MeanMS},
		)
	}
	if base.Ingest != nil && doc.Ingest != nil {
		rows = append(rows,
			compareRow{name: "ingest upload+seal ms", old: base.Ingest.UploadSealMS, new: doc.Ingest.UploadSealMS},
			compareRow{name: "ingest byhash payload bytes", old: float64(base.Ingest.ByHashPayloadBytes), new: float64(doc.Ingest.ByHashPayloadBytes)},
			compareRow{name: "ingest byhash cold mean ms", old: base.Ingest.ByHashColdMS.MeanMS, new: doc.Ingest.ByHashColdMS.MeanMS},
			compareRow{name: "ingest byhash cache-hit mean ms", old: base.Ingest.ByHashCacheHitMS.MeanMS, new: doc.Ingest.ByHashCacheHitMS.MeanMS},
		)
	}
	if base.Events != nil && doc.Events != nil {
		rows = append(rows,
			compareRow{name: "events publish/sec", old: base.Events.PublishPerSec, new: doc.Events.PublishPerSec, higherBetter: true},
			compareRow{name: "events delivered/sec", old: base.Events.DeliveredPerSec, new: doc.Events.DeliveredPerSec, higherBetter: true},
		)
	}
	if base.Observability != nil && doc.Observability != nil {
		rows = append(rows,
			compareRow{name: "observability on jobs/sec", old: base.Observability.OnJobsPerSec, new: doc.Observability.OnJobsPerSec, higherBetter: true},
			compareRow{name: "observability off jobs/sec", old: base.Observability.OffJobsPerSec, new: doc.Observability.OffJobsPerSec, higherBetter: true},
		)
	}
	// Absolute guard on the observability plane: tracing + accounting must
	// stay under observabilityOverheadMaxPct of job throughput regardless of
	// the percentage threshold.
	guardFailures := 0
	if doc.Observability != nil && doc.Observability.OverheadPct > observabilityOverheadMaxPct {
		fmt.Fprintf(os.Stderr,
			"R observability overhead %.1f%% exceeds the %.0f%% guard\n",
			doc.Observability.OverheadPct, observabilityOverheadMaxPct)
		guardFailures++
	}

	fmt.Fprintf(os.Stderr, "bench compare vs %s (threshold %.0f%%):\n", path, thresholdPct)
	regressions := 0
	for _, r := range rows {
		if r.old == 0 {
			continue
		}
		deltaPct := 100 * (r.new - r.old) / r.old
		regressed := deltaPct < -thresholdPct
		if !r.higherBetter {
			regressed = deltaPct > thresholdPct
		}
		mark := "  "
		if regressed {
			mark = "R "
			regressions++
		}
		fmt.Fprintf(os.Stderr, "%s%-38s %12.2f -> %12.2f  (%+.1f%%)\n", mark, r.name, r.old, r.new, deltaPct)
	}
	regressions += guardFailures
	if regressions > 0 {
		return fmt.Errorf("%d measurement(s) regressed beyond %.0f%% vs %s", regressions, thresholdPct, path)
	}
	fmt.Fprintf(os.Stderr, "no regressions beyond %.0f%% across %d comparable row(s)\n", thresholdPct, len(rows))
	return nil
}

// runJournalPerf measures jobs/sec through the async Manager with the
// journal off, on without fsync, and on with the production
// fsync-on-terminal policy, all over the same segmentation-only payloads.
// Each job's manual annotation is drawn with its own seed, so every submit
// carries distinct bytes and writes its own payload blob instead of
// deduplicating onto one.
func runJournalPerf(v *synth.Video) (*perfJournal, error) {
	cfg := core.DefaultConfig()
	an, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	exec := jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, _ func(string)) (any, error) {
		req, err := p.AnalysisRequest()
		if err != nil {
			return nil, err
		}
		return an.Run(ctx, req, nil)
	})
	const njobs = 12
	payloads := make([]jobs.Payload, njobs)
	for i := range payloads {
		p, err := jobs.NewAnalysisPayload(jobs.ConfigFingerprint(cfg), core.Request{
			Frames:      v.Frames,
			ManualFirst: v.ManualAnnotation(synth.DefaultAnnotationError(), int64(i+1)),
			Stages:      core.OnlyStage(core.StageSegmentation),
		})
		if err != nil {
			return nil, err
		}
		payloads[i] = p
	}

	run := func(jrn jobs.Journal) (float64, error) {
		m, err := jobs.New(jobs.Config{Workers: 2, QueueSize: njobs, Journal: jrn}, exec)
		if err != nil {
			return 0, err
		}
		defer m.Close(context.Background())
		start := time.Now()
		ids := make([]string, 0, njobs)
		for _, payload := range payloads {
			id, err := m.Submit(payload)
			if err != nil {
				return 0, err
			}
			ids = append(ids, id)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for _, id := range ids {
			for {
				st, err := m.Status(id)
				if err != nil {
					return 0, err
				}
				if st.State == jobs.StateDone {
					break
				}
				if st.State == jobs.StateFailed {
					return 0, errors.New("journal bench job failed: " + st.Err)
				}
				if time.Now().After(deadline) {
					return 0, errors.New("journal bench timed out")
				}
				time.Sleep(time.Millisecond)
			}
		}
		return float64(njobs) / time.Since(start).Seconds(), nil
	}

	off, err := run(nil)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "slj-journal-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	onCfg := journal.DefaultConfig()
	onCfg.DisableTerminalFsync = true
	jOn, err := journal.Open(filepath.Join(dir, "on.journal"), onCfg)
	if err != nil {
		return nil, err
	}
	on, err := run(jOn)
	jOn.Close()
	if err != nil {
		return nil, err
	}
	jFs, err := journal.Open(filepath.Join(dir, "fsync.journal"), journal.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fsynced, err := run(jFs)
	jFs.Close()
	if err != nil {
		return nil, err
	}
	return &perfJournal{
		Jobs:            njobs,
		OffJobsPerSec:   off,
		OnJobsPerSec:    on,
		FsyncJobsPerSec: fsynced,
		OverheadPct:     100 * (off - fsynced) / off,
	}, nil
}

// runObservabilityPerf measures jobs/sec through the async Manager with
// the observability plane on versus off. The modes alternate across
// four rounds each and keep their best round: the measured overhead is
// a few percent at most, so a single noisy round — or machine drift
// favouring whichever mode ran last — would dominate the signal.
func runObservabilityPerf(v *synth.Video) (*perfObservability, error) {
	cfg := core.DefaultConfig()
	an, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	exec := jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, _ func(string)) (any, error) {
		req, err := p.AnalysisRequest()
		if err != nil {
			return nil, err
		}
		return an.Run(ctx, req, nil)
	})
	payload, err := jobs.NewAnalysisPayload(jobs.ConfigFingerprint(cfg), core.Request{
		Frames:      v.Frames,
		ManualFirst: v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
		Stages:      core.OnlyStage(core.StageSegmentation),
	})
	if err != nil {
		return nil, err
	}

	const njobs = 24
	run := func(disable bool) (float64, error) {
		mcfg := jobs.Config{Workers: 2, QueueSize: njobs, DisableObservability: disable}
		if !disable {
			mcfg.SLO = obs.NewSLO(2*time.Second, 0.99)
		}
		m, err := jobs.New(mcfg, exec)
		if err != nil {
			return 0, err
		}
		defer m.Close(context.Background())
		start := time.Now()
		ids := make([]string, 0, njobs)
		for i := 0; i < njobs; i++ {
			id, err := m.Submit(payload)
			if err != nil {
				return 0, err
			}
			ids = append(ids, id)
		}
		deadline := time.Now().Add(2 * time.Minute)
		for _, id := range ids {
			for {
				st, err := m.Status(id)
				if err != nil {
					return 0, err
				}
				if st.State == jobs.StateDone {
					break
				}
				if st.State == jobs.StateFailed {
					return 0, errors.New("observability bench job failed: " + st.Err)
				}
				if time.Now().After(deadline) {
					return 0, errors.New("observability bench timed out")
				}
				time.Sleep(time.Millisecond)
			}
		}
		return float64(njobs) / time.Since(start).Seconds(), nil
	}
	var on, off float64
	for round := 0; round < 4; round++ {
		r, err := run(false)
		if err != nil {
			return nil, err
		}
		if r > on {
			on = r
		}
		if r, err = run(true); err != nil {
			return nil, err
		}
		if r > off {
			off = r
		}
	}
	return &perfObservability{
		Jobs:          njobs,
		OnJobsPerSec:  on,
		OffJobsPerSec: off,
		OverheadPct:   100 * (off - on) / off,
	}, nil
}

// runDispatchPerf measures the remote dispatch round trip: two slj-serve
// worker nodes on an in-process HTTP stack, segmentation-only payloads
// hash-routed over them, each clip submitted cold and then resubmitted to
// hit the routed node's result cache.
func runDispatchPerf(seed int64) (*perfDispatch, error) {
	const nodes = 2
	cfg := core.DefaultConfig()

	var urls []string
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for i := 0; i < nodes; i++ {
		opts := server.DefaultOptions()
		opts.Worker = true
		s, err := server.NewWithOptions(cfg, nil, opts)
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(s.Handler())
		closers = append(closers, func() {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = s.Close(ctx)
		})
		urls = append(urls, hs.URL)
	}
	d, err := dispatch.New(dispatch.Config{Nodes: urls})
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { _ = d.Close(context.Background()) })

	// Distinct clips spread over the ring; identical resubmissions measure
	// the cache-hit path on the same node.
	const clips = 4
	fp := jobs.ConfigFingerprint(cfg)
	var payloads []jobs.Payload
	for i := 0; i < clips; i++ {
		params := synth.DefaultJumpParams()
		params.Seed = seed + int64(i)
		v, err := synth.Generate(params)
		if err != nil {
			return nil, err
		}
		p, err := jobs.NewAnalysisPayload(fp, core.Request{
			Frames:      v.Frames,
			ManualFirst: v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
			Stages:      core.OnlyStage(core.StageSegmentation),
		})
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, p)
	}

	var cold, hit []float64
	for _, p := range payloads {
		ms, err := dispatchRoundTrip(d, p)
		if err != nil {
			return nil, fmt.Errorf("dispatch bench (cold): %w", err)
		}
		cold = append(cold, ms)
	}
	for _, p := range payloads {
		ms, err := dispatchRoundTrip(d, p)
		if err != nil {
			return nil, fmt.Errorf("dispatch bench (hit): %w", err)
		}
		hit = append(hit, ms)
	}

	return &perfDispatch{
		Nodes:      nodes,
		RoundTrips: len(cold) + len(hit),
		ColdMS:     statsOf(cold),
		CacheHitMS: statsOf(hit),
		NodeStats:  d.Metrics().Nodes,
	}, nil
}

// dispatchRoundTrip submits one payload and polls until its result lands,
// returning the wall-clock milliseconds.
func dispatchRoundTrip(d *dispatch.Remote, p jobs.Payload) (float64, error) {
	start := time.Now()
	id, err := d.Submit(p)
	if err != nil {
		return 0, err
	}
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if _, err := d.Result(id); err == nil {
			return time.Since(start).Seconds() * 1000, nil
		} else if !errors.Is(err, jobs.ErrNotFinished) {
			return 0, err
		}
		time.Sleep(time.Millisecond)
	}
	return 0, errors.New("dispatch round trip timed out")
}

// runFleetPerf measures one node-death failover per mode and round: a clip
// is computed on whichever worker the ring picked, that worker's listener
// is torn down, and the identical resubmission is timed end to end. With
// Replicate off the ring successor re-runs the pipeline; with it on, the
// successor answers from the result replicated to it before the kill.
func runFleetPerf(seed int64) (*perfFleet, error) {
	const rounds = 2
	cfg := core.DefaultConfig()
	fp := jobs.ConfigFingerprint(cfg)

	measure := func(replicate bool, round int) (ms float64, err error) {
		var closers []func()
		defer func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		}()
		var faces []*httptest.Server
		for i := 0; i < 2; i++ {
			opts := server.DefaultOptions()
			opts.Worker = true
			if replicate {
				repl := dispatch.NewReplicator(nil)
				closers = append(closers, repl.Close)
				opts.Replicator = repl
			}
			s, err := server.NewWithOptions(cfg, nil, opts)
			if err != nil {
				return 0, err
			}
			hs := httptest.NewServer(s.Handler())
			closers = append(closers, func() {
				hs.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				_ = s.Close(ctx)
			})
			faces = append(faces, hs)
		}
		dcfg := dispatch.DefaultConfig()
		dcfg.Nodes = []string{faces[0].URL, faces[1].URL}
		dcfg.HealthInterval = time.Hour // failover timing, not probe timing
		dcfg.Replicate = replicate
		d, err := dispatch.New(dcfg)
		if err != nil {
			return 0, err
		}
		closers = append(closers, func() { _ = d.Close(context.Background()) })

		params := synth.DefaultJumpParams()
		params.Seed = seed + int64(round)
		v, err := synth.Generate(params)
		if err != nil {
			return 0, err
		}
		p, err := jobs.NewAnalysisPayload(fp, core.Request{
			Frames:      v.Frames,
			ManualFirst: v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
			Stages:      core.OnlyStage(core.StageSegmentation),
		})
		if err != nil {
			return 0, err
		}
		if _, err := dispatchRoundTrip(d, p); err != nil {
			return 0, fmt.Errorf("fleet bench (warm-up run): %w", err)
		}

		// Identify the worker that ran the clip; the other holds (or will
		// hold) the replica.
		runner := -1
		for _, n := range d.Metrics().Nodes {
			if n.Submitted == 0 {
				continue
			}
			for i, hs := range faces {
				if hs.URL == n.URL {
					runner = i
				}
			}
		}
		if runner < 0 {
			return 0, errors.New("fleet bench: no worker ran the clip")
		}
		if replicate {
			if err := waitForReplica(faces[1-runner].URL, 15*time.Second); err != nil {
				return 0, err
			}
		}
		faces[runner].Close()
		ms, err = dispatchRoundTrip(d, p)
		if err != nil {
			return 0, fmt.Errorf("fleet bench (failover): %w", err)
		}
		return ms, nil
	}

	out := &perfFleet{Rounds: rounds}
	var recompute, replicaHit []float64
	for round := 0; round < rounds; round++ {
		ms, err := measure(false, round)
		if err != nil {
			return nil, err
		}
		recompute = append(recompute, ms)
		ms, err = measure(true, round)
		if err != nil {
			return nil, err
		}
		replicaHit = append(replicaHit, ms)
	}
	out.FailoverRecomputeMS = statsOf(recompute)
	out.FailoverReplicaHitMS = statsOf(replicaHit)
	return out, nil
}

// waitForReplica polls a worker's metrics until a replicated result has
// been received, bounding how long the push may lag.
func waitForReplica(workerURL string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		resp, err := http.Get(workerURL + "/v1/metrics")
		if err != nil {
			return err
		}
		var doc struct {
			Replication *struct {
				ResultsReceived uint64 `json:"results_received"`
			} `json:"replication"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if doc.Replication != nil && doc.Replication.ResultsReceived > 0 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("fleet bench: replica never reached the successor")
}

// ingestJSON posts a JSON document (nil for an empty body) and decodes the
// JSON response into out, erroring on any status other than want.
func ingestJSON(method, url string, body io.Reader, contentType string, want int, out any) error {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: malformed document: %w", method, url, err)
		}
	}
	return nil
}

// runIngestPerf measures the streaming clip-ingest path on an in-process
// server: the canonical clip uploaded over a chunked ingest session and
// sealed into content-addressed artifacts, then analysed by hash. The
// payload-size rows marshal the actual dispatch wire forms: the inline
// payload carries every frame base64-encoded, the by-hash payload two
// content hashes and the manual pose.
func runIngestPerf(v *synth.Video) (*perfIngest, error) {
	cfg := core.DefaultConfig()
	s, err := server.NewWithOptions(cfg, nil, server.DefaultOptions())
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	}()

	const chunkFrames = 4
	var open struct {
		ClipID string `json:"clip_id"`
	}
	start := time.Now()
	if err := ingestJSON(http.MethodPost, hs.URL+"/v1/clips", nil, "", http.StatusCreated, &open); err != nil {
		return nil, err
	}
	chunks := 0
	for i := 0; i < len(v.Frames); i += chunkFrames {
		end := i + chunkFrames
		if end > len(v.Frames) {
			end = len(v.Frames)
		}
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		if err := mw.WriteField("chunk", strconv.Itoa(chunks)); err != nil {
			return nil, err
		}
		for k, f := range v.Frames[i:end] {
			fw, err := mw.CreateFormFile("frames", fmt.Sprintf("frame_%04d.ppm", k))
			if err != nil {
				return nil, err
			}
			if err := imaging.EncodePPM(fw, f); err != nil {
				return nil, err
			}
		}
		mw.Close()
		if err := ingestJSON(http.MethodPut, hs.URL+"/v1/clips/"+open.ClipID+"/frames",
			&body, mw.FormDataContentType(), http.StatusOK, nil); err != nil {
			return nil, err
		}
		chunks++
	}
	var seal artifacts.SealDoc
	if err := ingestJSON(http.MethodPost, hs.URL+"/v1/clips/"+open.ClipID+"/seal",
		nil, "", http.StatusOK, &seal); err != nil {
		return nil, err
	}
	uploadSealMS := time.Since(start).Seconds() * 1000

	manual := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	fp := jobs.ConfigFingerprint(cfg)
	inlineReq := core.Request{
		Frames:             v.Frames,
		ManualFirst:        manual,
		Stages:             core.OnlyStage(core.StageSegmentation),
		IncludeSilhouettes: true,
	}
	inlineP, err := jobs.NewAnalysisPayload(fp, inlineReq)
	if err != nil {
		return nil, err
	}
	inlineRaw, err := json.Marshal(inlineP)
	if err != nil {
		return nil, err
	}
	refReq := inlineReq
	refReq.Frames = nil
	refReq.FramesRef = seal.FramesHash
	refP, err := jobs.NewArtifactPayload(fp, refReq, inlineReq)
	if err != nil {
		return nil, err
	}
	refRaw, err := json.Marshal(refP)
	if err != nil {
		return nil, err
	}

	analyzeDoc, err := json.Marshal(map[string]any{
		"frames_ref":   seal.FramesHash,
		"manual_first": map[string]any{"x": manual.X, "y": manual.Y, "rho": manual.Rho[:]},
		"stages":       "segmentation",
		"silhouettes":  true,
	})
	if err != nil {
		return nil, err
	}
	roundTrip := func() (float64, error) {
		t0 := time.Now()
		if err := ingestJSON(http.MethodPost, hs.URL+"/v1/analyze",
			bytes.NewReader(analyzeDoc), "application/json", http.StatusOK, nil); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds() * 1000, nil
	}
	coldMS, err := roundTrip()
	if err != nil {
		return nil, fmt.Errorf("ingest bench (cold): %w", err)
	}
	var hit []float64
	for i := 0; i < 4; i++ {
		ms, err := roundTrip()
		if err != nil {
			return nil, fmt.Errorf("ingest bench (hit): %w", err)
		}
		hit = append(hit, ms)
	}

	return &perfIngest{
		Frames:             seal.Frames,
		Chunks:             chunks,
		UploadSealMS:       uploadSealMS,
		InlinePayloadBytes: len(inlineRaw),
		ByHashPayloadBytes: len(refRaw),
		ByHashColdMS:       statsOf([]float64{coldMS}),
		ByHashCacheHitMS:   statsOf(hit),
	}, nil
}
