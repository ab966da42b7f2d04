package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"mime/multipart"
	"strconv"
	"time"

	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// clients is the number of closed-loop load-generator clients: one per
// core of the 2-CPU host the bounds were fixed on. Each client is a teacher
// who waits for the advice on one clip before sending the next.
const clients = 2

// workload names one traffic mix of the benchmark.
type workload struct {
	name string
	// stages is the pipeline range each timed operation requests, in
	// core.ParseStageSelection form ("" = the full pipeline).
	stages string
	// repeatEvery makes every repeatEvery-th operation of a client resend
	// one of its own recent clips (a result-cache read); 0 never repeats.
	repeatEvery int
	// maxRate is the most operations per second one client is expected to
	// complete. The request bodies are encoded before the window opens, so
	// it sizes the pre-built pool (and the run's memory); it sits at about
	// 1.5 times the rate measured on the 2-CPU host. A client that uses up
	// its pool stops early: the run reports it and rates that client over
	// its busy time instead of the window.
	maxRate float64
	// ladderOps is how many operations of each client's sequence every
	// rung of the traced ladder runs.
	ladderOps int
	// fleet runs the workload on the dispatch front end over two workers;
	// journal runs it on a single node with the on-disk job journal.
	fleet, journal bool
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"full_clip", "seg_journal", "ingest_fleet"}

var workloads = map[string]workload{
	"full_clip":    {name: "full_clip", maxRate: 1.2, ladderOps: 3},
	"seg_journal":  {name: "seg_journal", stages: "segmentation", repeatEvery: 4, maxRate: 7, ladderOps: 16, journal: true},
	"ingest_fleet": {name: "ingest_fleet", stages: "segmentation", repeatEvery: 4, maxRate: 6, ladderOps: 16, fleet: true},
}

// maxOps is the size of one client's operation sequence for a window.
func (w workload) maxOps(window time.Duration) int {
	n := int(w.maxRate*window.Seconds()) + 1
	if n < w.ladderOps {
		n = w.ladderOps
	}
	return n
}

// repeatWindow bounds how far back a repeated operation reaches among its
// client's unique clips. Both clients together insert at most
// 2·repeatWindow entries between a clip's first analysis and its repeat,
// far below the default result-cache capacity (64), so every repeat is a
// cache hit by construction rather than by luck of LRU timing.
const repeatWindow = 8

// clipSpec is everything needed to regenerate one synthetic clip.
type clipSpec struct {
	ID     string
	Params synth.JumpParams
}

// opSpec is one operation of a client's sequence.
type opSpec struct {
	Client int
	N      int // position in the client's sequence
	Clip   int // index into the client's unique clips
	Repeat bool
}

// clientSeq is one client's seeded operation sequence and the unique clips
// it draws on.
type clientSeq struct {
	Ops   []opSpec
	Clips []clipSpec
}

// sequences derives every client's operation sequence from the workload
// seed. The same seed always yields the same sequences, so every run of a
// seed replays identical operations in identical order per client.
func sequences(w workload, seed int64, maxOps int) [clients]clientSeq {
	var out [clients]clientSeq
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(mixSeed(seed, int64(c))))
		var s clientSeq
		for n := 0; n < maxOps; n++ {
			op := opSpec{Client: c, N: n}
			if w.repeatEvery > 0 && n%w.repeatEvery == w.repeatEvery-1 {
				lo := len(s.Clips) - repeatWindow
				if lo < 0 {
					lo = 0
				}
				op.Clip = lo + rng.Intn(len(s.Clips)-lo)
				op.Repeat = true
			} else {
				op.Clip = len(s.Clips)
				s.Clips = append(s.Clips, drawClip(rng, fmt.Sprintf("c%d-%03d", c, op.Clip)))
			}
			s.Ops = append(s.Ops, op)
		}
		out[c] = s
	}
	return out
}

// mixSeed derives an independent stream seed from a workload seed and a
// stream index (splitmix64 finaliser).
func mixSeed(seed, stream int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// drawClip draws one canonical-shape clip (20 frames, 192×144): which of
// the seven Table 2 defects is planted (or none), the jumper's height, and
// the rendering-noise seed.
func drawClip(rng *rand.Rand, id string) clipSpec {
	p := synth.DefaultJumpParams()
	p.Defects = defect(rng.Intn(8))
	p.BodyHeight = 60 + 12*rng.Float64()
	p.Seed = rng.Int63()
	return clipSpec{ID: id, Params: p}
}

// defect returns the k-th planted form defect; 0 is a good-form jump.
func defect(k int) synth.FormDefects {
	var d synth.FormDefects
	switch k {
	case 1:
		d.NoKneeBend = true
	case 2:
		d.NoNeckBend = true
	case 3:
		d.NoArmBackswing = true
	case 4:
		d.StraightArms = true
	case 5:
		d.NoAirKneeBend = true
	case 6:
		d.UprightTrunk = true
	case 7:
		d.NoArmForward = true
	}
	return d
}

// warmupClips are the fixed clips of the untimed warm-up operations, one
// per client. They do not depend on the workload seed, so set-up does the
// same work in every run.
func warmupClips() [clients]clipSpec {
	var out [clients]clipSpec
	for c := range out {
		p := synth.DefaultJumpParams()
		p.Seed = 1000 + int64(c)
		out[c] = clipSpec{ID: fmt.Sprintf("warmup-%d", c), Params: p}
	}
	return out
}

// evalClips is the fixed accuracy set: the Table 2 planted-defect clips
// (good form plus one clip per rule) at the default height and noise seed 1.
// It does not depend on the workload seed, so the accuracy metrics repeat
// exactly from run to run and move only when the program's output does.
func evalClips() []clipSpec {
	base := synth.DefaultJumpParams()
	var out []clipSpec
	for _, dc := range synth.DefectClips(base) {
		out = append(out, clipSpec{ID: "eval-" + dc.Name, Params: dc.Params})
	}
	return out
}

// clip is a generated clip ready to send.
type clip struct {
	spec   clipSpec
	frames []*imaging.Image
	// manual is the annotated first-frame pose, rounded to the two decimals
	// the multipart truth file carries, so inline and by-hash requests
	// analyse the identical pose.
	manual stickmodel.Pose
}

// generate renders the clip and its manual first-frame annotation.
func (s clipSpec) generate() (*clip, *synth.Video, error) {
	v, err := synth.Generate(s.Params)
	if err != nil {
		return nil, nil, fmt.Errorf("generate %s: %w", s.ID, err)
	}
	m := v.ManualAnnotation(synth.DefaultAnnotationError(), 1)
	m.X, m.Y = round2(m.X), round2(m.Y)
	for l := range m.Rho {
		m.Rho[l] = round2(m.Rho[l])
	}
	return &clip{spec: s, frames: v.Frames, manual: m}, v, nil
}

func round2(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 2, 64), 64)
	return r
}

// multipartBody encodes the clip as the service's multipart upload: the
// PPM frames, the truth file carrying the manual first pose, and the
// response-shaping fields.
func (c *clip) multipartBody(stages string) ([]byte, string, error) {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	// A fixed boundary, not the writer's random one, keeps the body a pure
	// function of the clip.
	if err := mw.SetBoundary("perfbench-" + c.spec.ID + "-0123456789abcdef"); err != nil {
		return nil, "", err
	}
	for k, f := range c.frames {
		fw, err := mw.CreateFormFile("frames", clipio.FrameName(k))
		if err != nil {
			return nil, "", err
		}
		if err := imaging.EncodePPM(fw, f); err != nil {
			return nil, "", err
		}
	}
	fw, err := mw.CreateFormFile("truth", "truth.txt")
	if err != nil {
		return nil, "", err
	}
	fmt.Fprintf(fw, "0 %.2f %.2f", c.manual.X, c.manual.Y)
	for _, r := range c.manual.Rho {
		fmt.Fprintf(fw, " %.2f", r)
	}
	fmt.Fprintln(fw)
	fields := [][2]string{{"silhouettes", "1"}}
	if stages == "" {
		fields = append(fields, [2]string{"poses", "1"})
	} else {
		fields = append(fields, [2]string{"stages", stages})
	}
	for _, f := range fields {
		if err := mw.WriteField(f[0], f[1]); err != nil {
			return nil, "", err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, "", err
	}
	return body.Bytes(), mw.FormDataContentType(), nil
}
