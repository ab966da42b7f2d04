package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/journal"
	"github.com/sljmotion/sljmotion/internal/pose"
	"github.com/sljmotion/sljmotion/internal/scoring"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/track"
)

// The layer ladder runs the same seeded operations — the first ladderOps of
// each client's sequence, two clients at a time as in the window — through
// ever more of the system:
//
//  1. direct calls into each pipeline stage;
//  2. core.Analyzer.Run;
//  3. a jobs.Manager executing Run (over the journal on seg_journal);
//  4. one loopback HTTP node;
//  5. the dispatch fleet (ingest_fleet only).
//
// The difference between the medians of adjacent rungs is that layer's
// cost; what the top rung leaves of the window's end-to-end median is the
// remainder no rung accounts for.

// ladderClip is a ladder operation's input, regenerated before timing.
type ladderClip struct {
	frames []*imaging.Image
	manual stickmodel.Pose
	req    core.Request
	pay    jobs.Payload
}

// stageTimes are one direct-call operation's per-stage milliseconds.
type stageTimes struct {
	seg, bg, pose, track, scoring float64
	evals                         int
}

type ladderResult struct {
	rungs  []float64 // median latency per rung, ms
	stages [5][]float64
	evals  int
	poseMS float64 // total pose-stage time, for evals/s
	clips  int
	memo   pose.GAStats // GA memo counters over rung 1
}

// ladderInputs regenerates the frames of the ladder operations and builds
// their requests and job payloads.
func (b *bench) ladderInputs() ([clients][]ladderClip, error) {
	cfg := analyzerConfig()
	fp := jobs.ConfigFingerprint(cfg)
	sel, err := core.ParseStageSelection(b.w.stages)
	if err != nil {
		return [clients][]ladderClip{}, err
	}
	var out [clients][]ladderClip
	for c := 0; c < clients; c++ {
		for _, r := range b.reqs[c][:b.w.ladderOps] {
			cl, _, err := r.clip.spec.generate()
			if err != nil {
				return out, err
			}
			req := core.Request{Frames: cl.frames, ManualFirst: cl.manual, Stages: sel,
				IncludePoses: b.w.stages == "", IncludeSilhouettes: true}
			pay, err := jobs.NewAnalysisPayload(fp, req)
			if err != nil {
				return out, err
			}
			out[c] = append(out[c], ladderClip{frames: cl.frames, manual: cl.manual, req: req, pay: pay})
		}
	}
	return out, nil
}

// rung runs fn(c, i) for the first n operations i of every client c, the
// clients concurrently, records a span named name per operation, and
// returns the per-operation latencies in ms.
func rung(rec *recorder, name string, n int, fn func(c, i int, sc spanCtx) error) ([]float64, error) {
	var mu sync.Mutex
	var lat []float64
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				sc := rec.newSpan()
				t0 := time.Now()
				err := fn(c, i, sc)
				t1 := time.Now()
				rec.finish(sc, name, t0, t1)
				d := ms(t1.Sub(t0))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				lat = append(lat, d)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return lat, firstErr
}

// directStages runs one operation as direct calls into each stage's public
// entry points, mirroring what core.Analyzer.Run does, with a span per
// stage under sc.
func directStages(lc ladderClip, full bool, rec *recorder, sc spanCtx) (stageTimes, error) {
	var st stageTimes
	cfg := analyzerConfig()
	t0 := time.Now()
	seg, err := segmentation.New(cfg.Segmentation)
	if err != nil {
		return st, err
	}
	_, _, sils, err := seg.RunDetailedWorkers(lc.frames, 1)
	if err != nil {
		return st, err
	}
	t1 := time.Now()
	rec.record("segmentation", sc, t0, t1, 0, 0)
	st.seg = ms(t1.Sub(t0))
	if !full {
		return st, nil
	}
	if sils[0].Area == 0 {
		return st, pose.ErrEmptySilhouette
	}
	poseCfg := cfg.Pose
	if poseCfg.Parallelism == 0 {
		poseCfg.Parallelism = cfg.Parallelism
	}
	est, err := pose.NewEstimator(stickmodel.ChildDimensions(float64(sils[0].BBox.H())), poseCfg)
	if err != nil {
		return st, err
	}
	dims, err := est.Calibrate(sils[0], lc.manual)
	if err != nil {
		return st, err
	}
	ests, err := est.EstimateSequence(sils, lc.manual)
	if err != nil {
		return st, err
	}
	t2 := time.Now()
	rec.record("pose", sc, t1, t2, 0, 0)
	st.pose = ms(t2.Sub(t1))
	poses := make([]stickmodel.Pose, len(ests))
	for i, e := range ests {
		poses[i] = e.Pose
		if e.GA != nil {
			st.evals += e.GA.Evaluations
		}
	}
	if _, err := track.NewTracker(dims, cfg.PxPerMeter).Analyze(poses); err != nil {
		return st, err
	}
	t3 := time.Now()
	rec.record("track", sc, t2, t3, 0, 0)
	st.track = ms(t3.Sub(t2))
	initW, airW := track.FixedWindows(len(poses))
	if _, err := scoring.NewScorer().Score(poses, initW, airW); err != nil {
		return st, err
	}
	t4 := time.Now()
	rec.record("scoring", sc, t3, t4, 0, 0)
	st.scoring = ms(t4.Sub(t3))
	return st, nil
}

// runLadder walks the rungs and returns their medians and the stage detail.
func (b *bench) runLadder(rec *recorder) (*ladderResult, error) {
	in, err := b.ladderInputs()
	if err != nil {
		return nil, err
	}
	full := b.w.stages == ""
	res := &ladderResult{}
	var mu sync.Mutex

	// Rung 1: direct stage calls. Background estimation runs inside
	// RunDetailedWorkers; it is timed again on its own, outside the
	// operation, as background.ms_per_clip.
	memo0 := pose.GAMetrics()
	n := b.w.ladderOps
	_, err = rung(rec, "ladder.stages", n, func(c, i int, sc spanCtx) error {
		lc := in[c][i]
		st, err := directStages(lc, full, rec, sc)
		if err != nil {
			return err
		}
		seg, err := segmentation.New(analyzerConfig().Segmentation)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := seg.EstimateBackground(lc.frames); err != nil {
			return err
		}
		t1 := time.Now()
		rec.record("background", sc, t0, t1, 0, 0)
		st.bg = ms(t1.Sub(t0))
		mu.Lock()
		for k, v := range []float64{st.seg, st.bg, st.pose, st.track, st.scoring} {
			res.stages[k] = append(res.stages[k], v)
		}
		res.evals += st.evals
		res.poseMS += st.pose
		res.clips++
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("rung 1 (stages): %w", err)
	}
	memo1 := pose.GAMetrics()
	res.memo = pose.GAStats{
		FitnessMemoHits:   memo1.FitnessMemoHits - memo0.FitnessMemoHits,
		FitnessMemoMisses: memo1.FitnessMemoMisses - memo0.FitnessMemoMisses,
	}
	// The rung's median is that of the per-operation stage sums, so the
	// stage rows and the rung agree.
	sums := make([]float64, len(res.stages[0]))
	for i := range sums {
		sums[i] = res.stages[0][i] + res.stages[2][i] + res.stages[3][i] + res.stages[4][i]
	}
	res.rungs = append(res.rungs, median(sums))

	// Rung 2: core.Analyzer.Run.
	an, err := core.New(analyzerConfig())
	if err != nil {
		return nil, err
	}
	lat, err := rung(rec, "ladder.core", n, func(c, i int, _ spanCtx) error {
		_, err := an.Run(context.Background(), in[c][i].req, nil)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("rung 2 (core): %w", err)
	}
	res.rungs = append(res.rungs, median(lat))

	// Rung 3: the job manager around Run.
	if lat, err = b.managerRung(an, in, rec); err != nil {
		return nil, fmt.Errorf("rung 3 (jobs): %w", err)
	}
	res.rungs = append(res.rungs, median(lat))

	// Rung 4: one loopback HTTP node; rung 5: the fleet.
	tops := []bool{true}
	if b.w.fleet {
		tops = []bool{true, false}
	}
	for _, single := range tops {
		lat, err := b.serviceRung(single, rec)
		if err != nil {
			return nil, fmt.Errorf("rung %d (http): %w", len(res.rungs)+1, err)
		}
		res.rungs = append(res.rungs, median(lat))
	}
	return res, nil
}

// managerRung submits the prepared payloads to a jobs.Manager whose
// executor calls Run, learning completion from Watch. On the journaled
// workload the manager writes through the timing decorator to a fresh
// production-policy journal.
func (b *bench) managerRung(an *core.Analyzer, in [clients][]ladderClip, rec *recorder) ([]float64, error) {
	cfg := jobs.DefaultConfig()
	if b.w.journal {
		dir, err := b.freshDir()
		if err != nil {
			return nil, err
		}
		j, err := journal.Open(filepath.Join(dir, "jobs.journal"), journal.DefaultConfig())
		if err != nil {
			return nil, err
		}
		defer j.Close()
		cfg.Journal = timedJournal{inner: j, rec: rec}
	}
	m, err := jobs.New(cfg, jobs.ExecutorFunc(func(ctx context.Context, p jobs.Payload, progress func(string)) (any, error) {
		req, err := p.AnalysisRequest()
		if err != nil {
			return nil, err
		}
		return an.Run(ctx, req, func(s core.Stage) { progress(string(s)) })
	}))
	if err != nil {
		return nil, err
	}
	defer m.Close(context.Background())
	return rung(rec, "ladder.jobs", b.w.ladderOps, func(c, i int, _ spanCtx) error {
		id, err := m.Submit(in[c][i].pay)
		if err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		ch, err := m.Watch(ctx, id, 0)
		if err != nil {
			return err
		}
		for e := range ch {
			if e.Terminal() {
				break
			}
		}
		_, err = m.Result(id)
		return err
	})
}

// serviceRung runs the ladder operations over HTTP: on a single node
// (single) or on the workload's own deployment.
func (b *bench) serviceRung(single bool, rec *recorder) ([]float64, error) {
	var d *deployment
	var err error
	if single && b.w.fleet {
		dc := deployConfig{w: b.w, single: true}
		if d, err = deploy(dc); err == nil {
			if err = b.warmUp(d); err != nil {
				_ = d.close()
			}
		}
	} else {
		d, _, err = b.setUp(nil)
	}
	if err != nil {
		return nil, err
	}
	defer d.close()
	name := "ladder.http"
	if !single {
		name = "ladder.fleet"
	}
	hashes := [clients]map[int]string{{}, {}}
	return rung(rec, name, b.w.ladderOps, func(c, i int, _ spanCtx) error {
		return doOp(context.Background(), b.w, d.url, b.tr, nil, b.reqs[c][i], hashes[c]).err
	})
}

// jobTimes are the lifecycle timestamps of one job, from GET /v1/jobs/{id}.
type jobTimes struct {
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at"`
	FinishedAt *time.Time `json:"finished_at"`
}

func fetchJobTimes(base, id string) (jobTimes, error) {
	var jt jobTimes
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return jt, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jt, fmt.Errorf("job %s: status %d", id, resp.StatusCode)
	}
	return jt, json.NewDecoder(resp.Body).Decode(&jt)
}

// cacheCounts sums the result-cache hit and miss counters of the nodes
// that execute jobs.
func cacheCounts(d *deployment) (hits, misses uint64, err error) {
	for _, n := range d.workers {
		resp, err := http.Get(n.url + "/v1/metrics")
		if err != nil {
			return 0, 0, err
		}
		var doc struct {
			Cache struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
			} `json:"cache"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		hits += doc.Cache.Hits
		misses += doc.Cache.Misses
	}
	return hits, misses, nil
}

// runTraced measures the untraced window, then the traced window, then the
// ladder, and reports the per-layer metrics.
func (b *bench) runTraced(env envInfo, out string) (*result, error) {
	d, _, err := b.setUp(nil)
	if err != nil {
		return nil, err
	}
	plain := b.runWindow(d, nil)
	b.tally("untraced window", plain.outcomes)
	b.wrong += b.checkWindow(d, plain.outcomes)
	if err := d.close(); err != nil {
		return nil, err
	}

	rec := newRecorder()
	d, _, err = b.setUp(rec)
	if err != nil {
		return nil, err
	}
	h0, m0, err := cacheCounts(d)
	if err != nil {
		return nil, err
	}
	win := b.runWindow(d, rec)
	h1, m1, err := cacheCounts(d)
	if err != nil {
		return nil, err
	}
	var queueWait, notify []float64
	for _, o := range win.outcomes {
		if o.err != nil || o.jobID == "" {
			continue
		}
		jt, err := fetchJobTimes(d.url, o.jobID)
		if err != nil {
			return nil, err
		}
		if jt.StartedAt != nil {
			queueWait = append(queueWait, ms(jt.StartedAt.Sub(jt.CreatedAt)))
		}
		if jt.FinishedAt != nil && !o.notified.IsZero() {
			notify = append(notify, ms(o.notified.Sub(*jt.FinishedAt)))
		}
	}
	b.tally("traced window", win.outcomes)
	b.wrong += b.checkWindow(d, win.outcomes)
	if err := d.close(); err != nil {
		return nil, err
	}

	lad, err := b.runLadder(rec)
	if err != nil {
		return nil, err
	}

	m := layerMetrics(b.w, rec, plain, win, lad)
	m["jobs.queue_wait_ms"] = metricValue{mean(queueWait), "ms"}
	m["events.notify_ms"] = metricValue{mean(notify), "ms"}
	if h1+m1 > h0+m0 {
		m["cache.hit_ratio"] = metricValue{float64(h1-h0) / float64(h1+m1-h0-m0), "ratio"}
	}
	printMetrics(m)

	flat := make(map[string]float64, len(m))
	for k, v := range m {
		flat[k] = v.Value
	}
	dump := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.seed))
	if err := writeDump(dump, traceDump{Workload: b.w.name, Seed: b.seed, Env: env, Spans: rec.snapshot(), Metrics: flat}); err != nil {
		return nil, err
	}
	fmt.Printf("spans written to %s\n", dump)
	return b.result(m), nil
}
