// Command perfbench is the repository's end-to-end benchmark. It drives the
// real service over loopback HTTP from one load-generator process with two
// closed-loop clients, on one of three workloads:
//
//	full_clip     one node, default options; every operation a distinct clip
//	              through the full pipeline (GA pose fitting dominates)
//	seg_journal   one node with the production job journal; segmentation-only
//	              jobs with inline frames, one in four a cached resubmission
//	ingest_fleet  a dispatch front end over two replicating workers; chunked
//	              clip ingest, then segmentation by hash, one in four cached
//
// Usage (from the repository root; see run.sh):
//
//	perfbench -workload full_clip -seed 1 -seconds 20 -trace 0
//	perfbench -workload all -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics: throughput and latency
// of the timed window (tracing off), set-up time, and accuracy against the
// synthetic ground truth on a fixed evaluation set. With -trace 1 it runs
// the window untraced and then traced, walks the layer ladder, and reports
// the per-layer metrics; the spans are written to the -out directory. The
// last line of standard output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// setupRepeats is how many times a run sets the deployment up; setup_s is
// the median, so one slow boot does not move it.
const setupRepeats = 3

// envInfo records what the numbers were measured on.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	RunDir     string `json:"run_dir"`
	RunDirFS   string `json:"run_dir_fs"`
}

// fsType names the filesystem holding dir, where the journal and spill
// files go.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	}
	return fmt.Sprintf("fs type %#x", st.Type)
}

// endToEndUnits is every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"ops_per_s":       "1/s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"setup_s":         "s",
	"mask_iou":        "ratio",
	"joint_err_deg":   "deg",
	"pck":             "ratio",
	"rule_agreement":  "ratio",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		wname   = flag.String("workload", "", "full_clip, seg_journal, ingest_fleet, or all of them in turn")
		seed    = flag.Int64("seed", 1, "workload seed: the clips and the operation sequence derive from it")
		seconds = flag.Int("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for run files (journal, spill, span dump)")
	)
	flag.Parse()
	names := []string{*wname}
	if *wname == "all" {
		names = workloadNames
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		names = nil
	}
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			names = nil
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload full_clip|seg_journal|ingest_fleet|all, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	// With -workload all the workloads run one after another; the final
	// result names each metric workload.metric.
	total := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		res, err := run(workloads[name], *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
	}
	raw, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

// bench is one run's state.
type bench struct {
	w      workload
	seed   int64
	window time.Duration
	runDir string // removed when the run ends
	seqs   [clients]clientSeq
	reqs   [clients][]request
	warm   [clients]request
	eval   []request
	tr     http.RoundTripper
	pool   *bodyPool
	dirs   int
	// attempted counts every operation; failed those that errored or were
	// refused (503); wrong those whose output failed its check. Both count
	// against the attempts, and only wrong makes a run incorrect: a job the
	// service reports as failed gave no answer, not a wrong one.
	attempted, failed, wrong int
}

func run(w workload, seed int64, window time.Duration, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	env := envInfo{NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		RunDir: runDir, RunDirFS: fsType(runDir)}
	fmt.Printf("perfbench %s seed=%d window=%s traced=%v nproc=%d GOMAXPROCS=%d %s run dir on %s\n",
		w.name, seed, window, traced, env.NumCPU, env.GoMaxProcs, env.GoVersion, env.RunDirFS)

	b := &bench{w: w, seed: seed, window: window, runDir: runDir, tr: newTransport(), pool: &bodyPool{}}
	defer b.pool.close()
	if err := b.prepare(); err != nil {
		return nil, err
	}
	if traced {
		return b.runTraced(env, out)
	}
	return b.runEndToEnd()
}

// freshDir returns a new empty directory inside the run directory for one
// deployment's journal or spill files.
func (b *bench) freshDir() (string, error) {
	b.dirs++
	dir := filepath.Join(b.runDir, fmt.Sprintf("deploy-%d", b.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// prepare generates every clip and encodes every request body before any
// timing starts.
func (b *bench) prepare() error {
	b.seqs = sequences(b.w, b.seed, b.w.maxOps(b.window))
	for c := 0; c < clients; c++ {
		clips, err := b.buildClips(b.seqs[c].Clips, b.w.stages)
		if err != nil {
			return err
		}
		for _, op := range b.seqs[c].Ops {
			b.reqs[c] = append(b.reqs[c], clips[op.Clip].request(op))
		}
	}
	warm := warmupClips()
	warmClips, err := b.buildClips(warm[:], b.w.stages)
	if err != nil {
		return err
	}
	for c := range b.warm {
		b.warm[c] = warmClips[c].request(opSpec{Client: c, N: -1})
	}
	evals, err := b.buildClips(evalClips(), "")
	if err != nil {
		return err
	}
	for i, pc := range evals {
		b.eval = append(b.eval, pc.request(opSpec{Client: i % clients, N: -1 - i}))
	}
	return nil
}

// preparedClip is a clip in the form its workload sends it.
type preparedClip struct {
	clip   *clip
	body   []byte
	ctype  string
	stages string
}

func (p preparedClip) request(op opSpec) request {
	return request{op: op, clip: p.clip, body: p.body, ctype: p.ctype, stages: p.stages}
}

// buildClips renders specs in parallel and moves their encoded bodies into
// the pool. Inline workloads keep only the body (the frames are
// regenerated from the spec for checking); ingest workloads also keep the
// frames, which the ingest session encodes, in the pool.
func (b *bench) buildClips(specs []clipSpec, stages string) ([]preparedClip, error) {
	out := make([]preparedClip, len(specs))
	errs := make([]error, len(specs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(specs); i += clients {
				c, _, err := specs[i].generate()
				if err != nil {
					errs[i] = err
					continue
				}
				p := preparedClip{clip: c, stages: stages}
				var body []byte
				if b.w.fleet {
					body, err = byHashTail(c, stages)
				} else {
					body, p.ctype, err = c.multipartBody(stages)
				}
				frames := c.frames
				c.frames = nil
				mu.Lock()
				if err == nil {
					p.body, err = b.pool.add(body)
				}
				for _, f := range frames {
					if err != nil || !b.w.fleet {
						break
					}
					var img *imaging.Image
					img, err = b.pool.addImage(f)
					c.frames = append(c.frames, img)
				}
				mu.Unlock()
				errs[i] = err
				out[i] = p
			}
		}(g)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// setUp builds the deployment and brings it to where users are served: it
// boots the service, opens the journal, joins the fleet, runs one untimed
// warm-up operation per client and, on the journaled workload, restarts
// the node so it replays the warm-up jobs from the journal. It returns the
// deployment and the elapsed time.
func (b *bench) setUp(rec *recorder) (*deployment, time.Duration, error) {
	dir, err := b.freshDir()
	if err != nil {
		return nil, 0, err
	}
	dc := deployConfig{w: b.w, rec: rec, dir: dir}
	t0 := time.Now()
	d, err := deploy(dc)
	if err != nil {
		return nil, 0, err
	}
	if err := b.warmUp(d); err != nil {
		_ = d.close()
		return nil, 0, err
	}
	if b.w.journal {
		if err := d.restart(dc); err != nil {
			_ = d.close()
			return nil, 0, err
		}
	}
	return d, time.Since(t0), nil
}

func (b *bench) warmUp(d *deployment) error {
	outs := b.runConcurrent(d.url, b.warm[:], nil)
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
	}
	return nil
}

// runConcurrent runs the requests on the clients, request i on client
// i mod clients, and returns the outcomes in request order.
func (b *bench) runConcurrent(url string, reqs []request, rec *recorder) []outcome {
	outs := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hashes := map[int]string{}
			for i := c; i < len(reqs); i += clients {
				outs[i] = doOp(context.Background(), b.w, url, b.tr, rec, reqs[i], hashes)
			}
		}(c)
	}
	wg.Wait()
	return outs
}

// windowResult is one timed window.
type windowResult struct {
	outcomes []outcome
	start    time.Time
	end      time.Time // when the last operation completed
	// opsPerSec counts each client's operations completed by the deadline,
	// plus the fraction of the one in flight at the deadline that fell
	// inside the window, over the window's length. Counting the straddling
	// operation fractionally keeps a 1.4 s operation (or a journal
	// compaction stall) at the deadline from moving the rate by a whole
	// operation.
	opsPerSec float64
}

// runWindow runs both clients' sequences closed-loop until the deadline;
// an operation started before the deadline runs to completion.
func (b *bench) runWindow(d *deployment, rec *recorder) windowResult {
	res := windowResult{start: time.Now()}
	deadline := res.start.Add(b.window)
	var per [clients][]outcome
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hashes := map[int]string{}
			for _, r := range b.reqs[c] {
				if !time.Now().Before(deadline) {
					break
				}
				per[c] = append(per[c], doOp(context.Background(), b.w, d.url, b.tr, rec, r, hashes))
			}
			if len(per[c]) == len(b.reqs[c]) {
				fmt.Fprintf(os.Stderr, "perfbench: client %d used its whole pool of %d operations before the deadline\n", c, len(per[c]))
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		var done float64
		span := b.window
		for _, o := range per[c] {
			if o.end.After(res.end) {
				res.end = o.end
			}
			if o.err != nil {
				continue
			}
			if !o.end.After(deadline) {
				done++
			} else {
				done += float64(deadline.Sub(o.start)) / float64(o.end.Sub(o.start))
			}
		}
		if n := len(per[c]); n == len(b.reqs[c]) && per[c][n-1].end.Before(deadline) {
			span = per[c][n-1].end.Sub(res.start) // the pool ran out early
		}
		res.opsPerSec += done / span.Seconds()
		res.outcomes = append(res.outcomes, per[c]...)
	}
	return res
}

// latencies returns the latencies of the successful outcomes in ms.
func latencies(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.err == nil {
			xs = append(xs, ms(o.latency()))
		}
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts outcomes against attempts; failed operations are reported.
func (b *bench) tally(what string, outs []outcome) {
	for _, o := range outs {
		b.attempted++
		if o.err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s operation %d/%d failed: %v\n", what, o.op.Client, o.op.N, o.err)
		}
	}
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func (b *bench) runEndToEnd() (*result, error) {
	var setups []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		dep, took, err := b.setUp(nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 {
			if err := dep.close(); err != nil {
				return nil, err
			}
		} else {
			d = dep
		}
	}
	win := b.runWindow(d, nil)
	evalOuts := b.runConcurrent(d.url, b.eval, nil)
	b.tally("window", win.outcomes)
	b.tally("eval", evalOuts)
	b.wrong += b.checkWindow(d, win.outcomes)
	acc, bad := b.accuracy(evalOuts)
	b.wrong += bad
	if err := d.close(); err != nil {
		return nil, err
	}

	lat := latencies(win.outcomes)
	tailV, tailPct, beyond, ok := tail(lat)
	if !ok {
		tailV, tailPct, beyond = median(lat), 50, len(lat)/2
		fmt.Fprintf(os.Stderr, "perfbench: only %d samples; latency_tail_ms falls back to the median\n", len(lat))
	}
	m := map[string]metricValue{}
	for name, v := range map[string]float64{
		"ops_per_s":       win.opsPerSec,
		"latency_p50_ms":  median(lat),
		"latency_tail_ms": tailV,
		"setup_s":         median(setups),
		"mask_iou":        acc.maskIoU,
		"joint_err_deg":   acc.jointErrDeg,
		"pck":             acc.pck,
		"rule_agreement":  acc.ruleAgreement,
	} {
		m[name] = metricValue{v, endToEndUnits[name]}
	}
	fmt.Printf("window: %d operations in %.2fs (%d failed, %d wrong); tail = p%.1f with %d samples beyond it, of %d\n",
		len(win.outcomes), win.end.Sub(win.start).Seconds(), b.failed, b.wrong, tailPct, beyond, len(lat))
	fmt.Printf("set-up samples (s): %v\n", setups)
	fmt.Printf("peak memory: %s\n", peakRSS())
	fmt.Printf("accuracy over %d evaluation clips: %d verdicts compared\n", len(b.eval), acc.verdicts)
	printMetrics(m)
	return b.result(m), nil
}

func (b *bench) result(m map[string]metricValue) *result {
	return &result{Correct: b.wrong == 0, Attempted: b.attempted, Failed: b.failed + b.wrong, Metrics: m}
}

// peakRSS reports the process's peak resident set size.
func peakRSS() string {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%d MiB", ru.Maxrss/1024) // Linux reports KiB
}

func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
