// Command slj-analyze runs the full motion-analysis pipeline on a clip and
// prints the jump score report, the detected phases, and (optionally) the
// per-frame silhouettes as ASCII art.
//
// Input is either a directory of frame_NN.ppm files produced by slj-synth
// (or any camera pipeline), or — with -synthetic — a freshly generated clip.
// The manual first-frame stick figure required by the paper is read from
// the truth file when present, otherwise derived from a synthetic
// annotation.
//
// Usage:
//
//	slj-analyze -synthetic [-defect NAME] [-seed S] [-ascii]
//	slj-analyze -in DIR [-ascii]
//	slj-analyze -synthetic -stages segmentation -ascii
//	slj-analyze -synthetic -follow
//	slj-analyze -synthetic -trace
//
// -stages selects a pipeline prefix via the request API: "segmentation"
// stops after the silhouettes (no GA — fast, useful for inspecting the
// masks), "segmentation..pose" adds the stick-model fit, and "all" (the
// default) runs tracking and scoring too.
//
// -follow runs the analysis as an asynchronous job and streams its
// lifecycle live — queued, running, one line per pipeline stage, done —
// the terminal equivalent of the web service's
// GET /v1/jobs/{id}/events stream; the report prints as usual when the
// job finishes.
//
// -trace also runs through the job queue, and after the report prints the
// job's span tree — where the wall-clock time went: queue wait, each
// pipeline stage (with per-frame GA fits under pose), journal append and
// terminal publish — the terminal equivalent of GET /v1/jobs/{id}/trace.
//
// -clip-session URL streams the clip to a running slj-serve through the
// chunked ingest protocol instead of analysing in-process: frames upload
// in small chunks (the server segments them while later chunks are still
// in flight), the session is sealed into content-addressed artifacts, and
// the analysis runs by hash — the printed document is the web service's
// JSON response. A second run of the same clip re-uses the stored
// artifacts and the server's result cache without re-uploading anything.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/sljmotion/sljmotion"
	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/synth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "slj-analyze:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in        = flag.String("in", "", "input directory with frame_NN.ppm (+ optional truth.txt)")
		synthetic = flag.Bool("synthetic", false, "generate a synthetic clip instead of reading -in")
		defect    = flag.String("defect", "none", "planted defect for -synthetic")
		seed      = flag.Int64("seed", 1, "seed for -synthetic")
		ascii     = flag.Bool("ascii", false, "print per-frame silhouettes as ASCII art")
		detect    = flag.Bool("detect-windows", false, "use detected takeoff/landing windows instead of the paper's fixed windows")
		stages    = flag.String("stages", "all", "pipeline prefix to run: all, segmentation, segmentation..pose, ...")
		follow    = flag.Bool("follow", false, "run as an asynchronous job and stream lifecycle + per-stage progress events live")
		trace     = flag.Bool("trace", false, "print the job's span tree after the report: queue wait, per-stage and per-frame timings")
		clipURL   = flag.String("clip-session", "", "server base URL: stream the clip up in chunks via an ingest session and analyse it by hash")
		chunkSize = flag.Int("chunk-frames", 4, "frames per upload chunk for -clip-session")
	)
	flag.Parse()

	sel, err := sljmotion.ParseStageSelection(*stages)
	if err != nil {
		return err
	}
	if sel.Normalize().First != sljmotion.StageSegmentation {
		return fmt.Errorf("-stages must start at segmentation (got %s): the command's input is frames", sel)
	}

	var frames []*sljmotion.Image
	var manual sljmotion.Pose
	var pxPerMeter float64

	switch {
	case *synthetic:
		p := synth.DefaultJumpParams()
		p.Seed = *seed
		switch *defect {
		case "none", "":
		default:
			found := false
			for _, c := range synth.DefectClips(p) {
				if c.Name == *defect {
					p.Defects = c.Defects
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("unknown defect %q", *defect)
			}
		}
		v, err := synth.Generate(p)
		if err != nil {
			return err
		}
		frames = v.Frames
		manual = v.ManualAnnotation(synth.DefaultAnnotationError(), *seed)
		pxPerMeter = p.PxPerMeter()
	case *in != "":
		var err error
		frames, err = clipio.ReadFrames(*in)
		if err != nil {
			return err
		}
		manual, err = clipio.ReadManualPose(filepath.Join(*in, "truth.txt"))
		if err != nil {
			return fmt.Errorf("first-frame stick figure: %w (provide truth.txt)", err)
		}
	default:
		return fmt.Errorf("need -in DIR or -synthetic")
	}

	if *clipURL != "" {
		return streamClip(*clipURL, frames, manual, sel, *chunkSize)
	}

	cfg := sljmotion.DefaultConfig()
	cfg.PxPerMeter = pxPerMeter
	if *detect {
		cfg.Windows = sljmotion.WindowsDetected
	}
	req := sljmotion.AnalysisRequest{
		Frames:      frames,
		ManualFirst: manual,
		Stages:      sel,
	}
	var res *sljmotion.Result
	var traceDoc *sljmotion.JobTrace
	if *follow || *trace {
		res, traceDoc, err = runJob(cfg, req, *follow, *trace)
	} else {
		var an *sljmotion.Analyzer
		if an, err = sljmotion.NewAnalyzer(cfg); err == nil {
			res, err = an.Run(context.Background(), req, nil)
		}
	}
	if err != nil {
		return err
	}

	if res.Track != nil {
		fmt.Printf("frames: %d   takeoff: f%d   landing: f%d   distance: %.0f px",
			len(frames), res.Track.TakeoffFrame, res.Track.LandingFrame, res.Track.JumpDistancePx)
		if res.Track.JumpDistanceM > 0 {
			fmt.Printf(" (%.2f m)", res.Track.JumpDistanceM)
		}
		fmt.Println()
	} else {
		fmt.Printf("frames: %d   stages: %s\n", len(frames), sel)
	}
	if res.Report != nil {
		fmt.Print(res.Report.String())
	}
	if res.Poses != nil && res.Report == nil {
		fmt.Printf("estimated %d stick-model poses\n", len(res.Poses))
	}

	if *ascii {
		for k, s := range res.Silhouettes {
			if res.Track != nil {
				fmt.Printf("--- frame %02d (phase %s) ---\n", k, res.Track.Phases[k])
			} else {
				fmt.Printf("--- frame %02d ---\n", k)
			}
			fmt.Print(sljmotion.ASCIIMask(s.Mask, 72))
		}
	}
	if traceDoc != nil {
		printTrace(traceDoc)
	}
	return nil
}

// streamClip uploads the clip to a running slj-serve through a chunked
// ingest session, seals it into content-addressed artifacts, then analyses
// it by hash and prints the service's JSON response document.
func streamClip(base string, frames []*sljmotion.Image, manual sljmotion.Pose, sel sljmotion.StageSelection, chunkFrames int) error {
	if chunkFrames < 1 {
		chunkFrames = 1
	}
	cs, err := sljmotion.OpenClipSession(base, nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "clip session %s: uploading %d frames in chunks of %d\n",
		cs.ID(), len(frames), chunkFrames)
	for i := 0; i < len(frames); i += chunkFrames {
		end := i + chunkFrames
		if end > len(frames) {
			end = len(frames)
		}
		if err := cs.AppendFrames(frames[i:end]); err != nil {
			return err
		}
	}
	seal, err := cs.Seal()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "sealed: frames %s (%d frames)\n", seal.FramesHash, seal.Frames)
	raw, err := cs.Analyze(seal, manual, sljmotion.ClipAnalyzeOptions{Stages: sel.String()})
	if err != nil {
		return err
	}
	os.Stdout.Write(raw)
	if len(raw) > 0 && raw[len(raw)-1] != '\n' {
		fmt.Println()
	}
	return nil
}

// runJob runs the request through an in-process job queue: with follow it
// prints each streamed lifecycle/progress event as it happens, with trace
// it snapshots the finished job's span tree before the queue closes.
func runJob(cfg sljmotion.Config, req sljmotion.AnalysisRequest, follow, trace bool) (*sljmotion.Result, *sljmotion.JobTrace, error) {
	ctx := context.Background()
	q, err := sljmotion.NewJobQueue(cfg, sljmotion.JobQueueOptions{Workers: 1, QueueSize: 1})
	if err != nil {
		return nil, nil, err
	}
	defer q.Close(ctx)
	id, err := q.Submit(req)
	if err != nil {
		return nil, nil, err
	}
	ch, err := q.Watch(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	for e := range ch {
		if !follow {
			continue // draining to the terminal event is the wait mechanism
		}
		switch e.Type {
		case sljmotion.JobEventStage:
			fmt.Printf("follow: #%d stage %s\n", e.Seq, e.Stage)
		case sljmotion.JobEventFailed:
			fmt.Printf("follow: #%d failed: %s\n", e.Seq, e.Error)
		default:
			fmt.Printf("follow: #%d %s\n", e.Seq, e.Type)
		}
	}
	res, err := q.JobResult(id)
	if err != nil {
		return nil, nil, err
	}
	var doc *sljmotion.JobTrace
	if trace {
		if doc, err = q.Trace(id); err != nil {
			return nil, nil, fmt.Errorf("trace: %w", err)
		}
	}
	return res, doc, nil
}

// printTrace renders the span tree as an indented breakdown, one line per
// span, durations right-aligned so the hierarchy reads as a profile.
func printTrace(doc *sljmotion.JobTrace) {
	fmt.Printf("trace %s\n", doc.TraceID)
	printSpan(doc.Root, 1)
}

func printSpan(s *sljmotion.TraceSpan, depth int) {
	if s == nil {
		return
	}
	name := s.Name
	if f, ok := s.Attrs["frame"]; ok {
		name += " #" + f
	}
	indent := depth * 2
	pad := 30 - indent - len(name)
	if pad < 1 {
		pad = 1
	}
	fmt.Printf("%*s%s%*s%10.2f ms\n", indent, "", name, pad, "", s.DurationMS)
	for _, c := range s.Children {
		printSpan(c, depth+1)
	}
}
