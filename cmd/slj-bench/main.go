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
// -json switches to the performance mode: instead of the experiment
// reports, it times the paper's pipeline on the canonical synthetic clip
// and emits one machine-readable JSON document (schema slj-bench-perf/v1)
// on stdout, the data behind the BENCH_*.json baselines. The document
// carries three sections beside its provenance:
//
//   - segmentation: Steps 1-5 over the clip at increasing worker counts;
//   - end_to_end: Analyzer.Analyze sequential and parallel, repeated to a
//     minimum sample time, with p10/p50/p90 seconds per clip;
//   - observability: jobs/sec through the async Manager with the
//     observability plane (tracing and per-job resource accounting) on
//     versus off.
//
// -fast trims the GA budget for quick comparisons. The service layers
// (dispatch, fleet failover, journal, event bus, ingest) are measured end
// to end by perfbench/, with repeats, bounds and per-output checks.
//
// -compare diffs the fresh perf document against a committed baseline:
// matching segmentation, end-to-end and observability rows are reported
// with their deltas on stderr, and any regression beyond
// -compare-threshold percent exits nonzero, as does an observability
// overhead above 5% whatever the baseline.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/experiments"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/segmentation"
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
	Observability *perfObservability `json:"observability,omitempty"`
}

// perfObservability measures the cost of the observability plane on the
// async job path: segmentation-only jobs through an in-process Manager
// with tracing and per-job resource accounting on (the production default)
// versus both disabled.
type perfObservability struct {
	Jobs          int     `json:"jobs"`
	OnJobsPerSec  float64 `json:"on_jobs_per_sec"`
	OffJobsPerSec float64 `json:"off_jobs_per_sec"`
	// OverheadPct is the throughput cost of observability; the -compare
	// guard fails when it exceeds observabilityOverheadMaxPct.
	OverheadPct float64 `json:"overhead_pct"`
}

// observabilityOverheadMaxPct is the absolute -compare guard on the
// observability section, independent of the percentage threshold: spans
// and resource snapshots together must cost under 5% of job throughput.
const observabilityOverheadMaxPct = 5.0

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

// perfE2E is one end-to-end analysis timing at a fixed parallelism:
// the spread of seconds per clip over Reps analyses, and the frame rate
// of the median one.
type perfE2E struct {
	Parallelism  int     `json:"parallelism"`
	Reps         int     `json:"reps"`
	P10Seconds   float64 `json:"p10_seconds"`
	P50Seconds   float64 `json:"p50_seconds"`
	P90Seconds   float64 `json:"p90_seconds"`
	FramesPerSec float64 `json:"frames_per_sec"`
	GoMaxProcs   int     `json:"go_max_procs"`
}

// Minimum sample times: each row repeats its run until this much wall
// clock has passed, so one scheduling hiccup does not make the row.
const (
	segmentationMinSample = 300 * time.Millisecond
	endToEndMinSample     = 3 * time.Second
)

// timeReps runs fn until minSample has elapsed (at least once) and
// returns the seconds each run took.
func timeReps(minSample time.Duration, fn func() error) ([]float64, error) {
	var secs []float64
	for start := time.Now(); len(secs) == 0 || time.Since(start) < minSample; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// quantile returns the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) float64 {
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

// runPerf times the pipeline on the canonical synthetic clip and prints
// one JSON document. With a baseline path it additionally reports per-row
// deltas on stderr, erroring past the regression threshold.
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
	frames := float64(len(v.Frames))

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
		secs, err := timeReps(segmentationMinSample, func() error {
			_, err := pipe.RunWorkers(v.Frames, w)
			return err
		})
		if err != nil {
			return err
		}
		var total float64
		for _, s := range secs {
			total += s
		}
		perClip := total / float64(len(secs))
		doc.Segmentation = append(doc.Segmentation, perfSample{
			Workers:        w,
			Reps:           len(secs),
			SecondsPerClip: perClip,
			FramesPerSec:   frames / perClip,
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
		secs, err := timeReps(endToEndMinSample, func() error {
			_, err := an.Analyze(v.Frames, manual)
			return err
		})
		if err != nil {
			return err
		}
		sort.Float64s(secs)
		p50 := quantile(secs, 0.5)
		doc.EndToEnd = append(doc.EndToEnd, perfE2E{
			Parallelism:  par,
			Reps:         len(secs),
			P10Seconds:   quantile(secs, 0.1),
			P50Seconds:   p50,
			P90Seconds:   quantile(secs, 0.9),
			FramesPerSec: frames / p50,
			GoMaxProcs:   maxprocs,
		})
		if par == runtime.NumCPU() {
			break // single-core host: one row is the whole story
		}
	}

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

// compareRow is one comparable measurement of a perf document. Every row
// is a throughput, so a regression is a drop.
type compareRow struct {
	name string
	old  float64
	new  float64
}

// compareBaseline diffs the fresh document against a committed baseline,
// reporting every matching row and erroring when any regresses beyond the
// threshold or the observability overhead breaks its absolute guard.
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
					old:  b.FramesPerSec, new: n.FramesPerSec,
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
						old:  b.FramesPerSec, new: n.FramesPerSec,
					})
				}
			}
		}
	}
	if base.Observability != nil && doc.Observability != nil {
		rows = append(rows,
			compareRow{name: "observability on jobs/sec", old: base.Observability.OnJobsPerSec, new: doc.Observability.OnJobsPerSec},
			compareRow{name: "observability off jobs/sec", old: base.Observability.OffJobsPerSec, new: doc.Observability.OffJobsPerSec},
		)
	}

	fmt.Fprintf(os.Stderr, "bench compare vs %s (threshold %.0f%%):\n", path, thresholdPct)
	regressions := 0
	for _, r := range rows {
		if r.old == 0 {
			continue
		}
		deltaPct := 100 * (r.new - r.old) / r.old
		mark := "  "
		if deltaPct < -thresholdPct {
			mark = "R "
			regressions++
		}
		fmt.Fprintf(os.Stderr, "%s%-38s %12.2f -> %12.2f  (%+.1f%%)\n", mark, r.name, r.old, r.new, deltaPct)
	}
	// Absolute guard on the observability plane: tracing + accounting must
	// stay under observabilityOverheadMaxPct of job throughput regardless of
	// the percentage threshold.
	if doc.Observability != nil && doc.Observability.OverheadPct > observabilityOverheadMaxPct {
		fmt.Fprintf(os.Stderr,
			"R observability overhead %.1f%% exceeds the %.0f%% guard\n",
			doc.Observability.OverheadPct, observabilityOverheadMaxPct)
		regressions++
	}
	if regressions > 0 {
		return fmt.Errorf("%d measurement(s) regressed beyond %.0f%% vs %s", regressions, thresholdPct, path)
	}
	fmt.Fprintf(os.Stderr, "no regressions beyond %.0f%% across %d comparable row(s)\n", thresholdPct, len(rows))
	return nil
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
		m, err := jobs.New(jobs.Config{Workers: 2, QueueSize: njobs, DisableObservability: disable}, exec)
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
