package e2etest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/journal"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/server"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// poseDigests pins the pose stage's output per GOARCH: for each clip under
// the default config, a SHA-256 over the per-frame poses and fitness bits,
// the GA detail (evaluations, memo hits, generations, BestFoundAt, history)
// and the Table 2 report. A speedup of the pose stage must leave every digest
// where it is. Only amd64 is populated: a compiler that fuses
// multiply-adds (arm64, ppc64, s390x) rounds differently, so its floats
// are not comparable to this table.
var poseDigests = map[string]map[string]string{
	"amd64": {
		"good-form/default":     "6ff72f0c95075793e6e10031c206cb51",
		"straight-arms/default": "872740217eb8956f727098e586fdc819",
		"held-frame/default":    "28ad5228b389289a483ba588a0b4c39a",
	},
}

// determinismClips are the table's clips: the default synthetic jump, a
// planted defect under another noise seed and height, and a clip whose
// segmentation leaves one frame unseedable, so the held-pose fallback is
// pinned too.
func determinismClips() map[string]synth.JumpParams {
	good := synth.DefaultJumpParams()
	arms := synth.DefaultJumpParams()
	arms.Defects.StraightArms = true
	arms.BodyHeight = 63
	arms.Seed = 5
	held := synth.DefaultJumpParams()
	held.Defects.NoKneeBend = true
	held.BodyHeight = 69.60651141194393
	held.Seed = 7746114969739454977
	return map[string]synth.JumpParams{"good-form": good, "straight-arms": arms, "held-frame": held}
}

func TestPoseDeterminismTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	want, ok := poseDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no pose digests for GOARCH %s: fused multiply-adds change the floats", runtime.GOARCH)
	}
	for clip, params := range determinismClips() {
		v, err := synth.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		manual := twoDecimals(v.ManualAnnotation(synth.DefaultAnnotationError(), 1))
		name := clip + "/default"
		t.Run(name, func(t *testing.T) {
			an, err := core.New(core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			res, err := an.Analyze(v.Frames, manual)
			if err != nil {
				t.Fatal(err)
			}
			if got := poseDigest(res); got != want[name] {
				t.Errorf("pose digest %s, want %s", got, want[name])
			}
		})
	}
}

// serviceDigests pins, per GOARCH, the SHA-256 of the full-pipeline
// response document (stage_ms deleted) for each determinism clip under the
// harness config. TestServiceDeterminismTable checks that the synchronous
// route, an identical resubmission to it (answered from the result store),
// the async job route, a dispatch front end over one worker node,
// a by-hash analysis of the clip streamed through a chunked ingest session
// and a job re-run from the journal of a stack stopped mid-job all serve
// this document. Only amd64 is populated, for the same reason as
// poseDigests.
var serviceDigests = map[string]map[string]string{
	"amd64": {
		"good-form":     "02a30823fb414dad80b45317955a0b4f2a377379463c496f5561911e496b4e3a",
		"straight-arms": "c779c3cda32ead2973b2736ae4c5f72ae32739341db7df1ea2ad35ea372a5d29",
		"held-frame":    "89aa5db3ad4a7bb4fbbf6e16bb98ca1f548a10bfb75632a6df5786b688cf3bfe",
	},
}

func TestServiceDeterminismTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline through several server stacks")
	}
	want, ok := serviceDigests[runtime.GOARCH]
	if !ok {
		t.Skipf("no service digests for GOARCH %s: fused multiply-adds change the floats", runtime.GOARCH)
	}
	for clip, params := range determinismClips() {
		t.Run(clip, func(t *testing.T) {
			v, err := synth.Generate(params)
			if err != nil {
				t.Fatal(err)
			}
			// Each path gets its own server, so no path is answered from
			// another's result cache — except analyze-hit, the identical
			// resubmission to the analyze stack, which must be.
			syncURL := serviceStack(t, server.DefaultOptions()).URL
			syncRaw := analyzeSync(t, syncURL, v)
			hitRaw := analyzeSync(t, syncURL, v)
			if !bytes.Equal(hitRaw, syncRaw) {
				t.Errorf("analyze-hit is not byte-identical to the first answer (stage_ms included)")
			}
			paths := map[string][]byte{
				"analyze":     syncRaw,
				"analyze-hit": hitRaw,
				"jobs":        submitFull(t, serviceStack(t, server.DefaultOptions()).URL, v),
			}
			workerOpts := server.DefaultOptions()
			workerOpts.Worker = true
			d, err := dispatch.New(dispatch.Config{
				Nodes:          []string{serviceStack(t, workerOpts).URL},
				HealthInterval: 50 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			paths["dispatch"] = submitFull(t, serviceStack(t, server.Options{Dispatcher: d}).URL, v)
			paths["by-hash"] = analyzeByHash(t, serviceStack(t, server.DefaultOptions()).URL, v)
			paths["journal-replay"] = journalReplay(t, v)

			ref := StripVolatile(t, syncRaw)
			for name, raw := range paths {
				if got := StripVolatile(t, raw); !bytes.Equal(got, ref) {
					t.Errorf("%s document differs from /v1/analyze:\n%s\nvs\n%s", name, got, ref)
				}
			}
			sum := sha256.Sum256(ref)
			if got := hex.EncodeToString(sum[:]); got != want[clip] {
				t.Errorf("service digest %s, want %s", got, want[clip])
			}
		})
	}
}

// serviceStack starts one server under the harness config on httptest and
// closes it with the test.
func serviceStack(t *testing.T, opts server.Options) *httptest.Server {
	t.Helper()
	s, err := server.NewWithOptions(Config(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Close(ctx)
	})
	return hs
}

// submitsOnly journals only submissions: the log of a process that died
// with the job unfinished.
type submitsOnly struct{ jobs.Journal }

func (s submitsOnly) Append(e jobs.JournalEntry) error {
	if e.Op != jobs.OpSubmit {
		return nil
	}
	return s.Journal.Append(e)
}

// journalReplay submits the clip's full pipeline to a journaled stack whose
// journal keeps only the submission, so the job reads as interrupted, then
// reopens the journal on a fresh stack, which re-runs the job. A third
// stack over the same journal must serve the finished job byte-identical
// without running it again. Returns the re-run's document.
func journalReplay(t *testing.T, v *synth.Video) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.journal")
	var doc SubmitDoc
	var replayed []byte
	for phase := 0; phase < 3; phase++ {
		j, err := journal.Open(path, journal.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		opts := server.DefaultOptions()
		opts.Journal = j
		if phase == 0 {
			opts.Journal = submitsOnly{j}
		}
		s, err := server.NewWithOptions(Config(), nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		switch phase {
		case 0:
			var raw []byte
			var code int
			doc, raw, code = Submit(t, hs.URL, v, "", false)
			if code != http.StatusAccepted {
				t.Fatalf("journaled submit status %d: %s", code, raw)
			}
			PollResult(t, hs.URL, doc.ResultURL, 2*time.Minute)
		case 1:
			replayed = PollResult(t, hs.URL, doc.ResultURL, 2*time.Minute)
			if clips, _ := MetricsOf(t, hs.URL); clips != 1 {
				t.Errorf("interrupted job: %d clips analysed after replay, want 1 (a re-run)", clips)
			}
		case 2:
			if raw := PollResult(t, hs.URL, doc.ResultURL, 2*time.Minute); !bytes.Equal(raw, replayed) {
				t.Errorf("finished job is not served byte-identical after replay:\n%s\nvs\n%s", raw, replayed)
			}
			if clips, _ := MetricsOf(t, hs.URL); clips != 0 {
				t.Errorf("finished job: %d clips analysed after replay, want 0", clips)
			}
		}
		hs.Close()
		if err := s.Close(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return replayed
}

// analyzeSync runs the clip's full pipeline through base's synchronous
// route.
func analyzeSync(t *testing.T, base string, v *synth.Video) []byte {
	t.Helper()
	body, ctype := ClipUpload(t, v, "", false)
	resp, err := http.Post(base+"/v1/analyze", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// analyzeByHash streams the clip into an ingest session on base in 4-frame
// chunks, seals it, and runs the full pipeline over the sealed frames by
// content hash through the synchronous route.
func analyzeByHash(t *testing.T, base string, v *synth.Video) []byte {
	t.Helper()
	cs, err := sljmotion.OpenClipSession(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(v.Frames); i += 4 {
		if err := cs.AppendFrames(v.Frames[i:min(i+4, len(v.Frames))]); err != nil {
			t.Fatal(err)
		}
	}
	seal, err := cs.Seal()
	if err != nil {
		t.Fatal(err)
	}
	manual := twoDecimals(v.ManualAnnotation(synth.DefaultAnnotationError(), 1))
	raw, err := cs.Analyze(seal, manual, sljmotion.ClipAnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// submitFull runs the clip's full pipeline through base's async route.
func submitFull(t *testing.T, base string, v *synth.Video) []byte {
	t.Helper()
	doc, raw, code := Submit(t, base, v, "", false)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", code, raw)
	}
	return PollResult(t, base, doc.ResultURL, 2*time.Minute)
}

// segDigests pins the segmentation stage's output for the determinism
// table's clips: the SHA-256 of the Step 1 background (width, height, then
// RGB row-major) and of the silhouettes bit-packed as on the wire, in frame
// order. Segmentation is integer arithmetic end to end, so one table holds
// for every GOARCH. A speedup of Steps 1-5 must leave every digest where
// it is.
var segDigests = map[string]struct{ background, silhouettes string }{
	"good-form": {
		"4dd8f77a1b7230ca8af2cd82705641701c30dad6ac17ea2bf871d9ca49688505",
		"67bf705cd2b1b00a574205a405e567a20f3109935f69707cd0c34ca9f9b013d0",
	},
	"straight-arms": {
		"8fdda4ef199f7b09f35a4241bc1e5014a32edffcd400fa860b363b5995af9f3f",
		"77f13a157db3497e9a08c19870123115c0d75a7aacbbf6fd428b097d38f373f3",
	},
	"held-frame": {
		"763c5362a404e27ac96b056c4a5f7487bbc8b41164464cc3730c8da1b66980cf",
		"1640925435fe2aa6c52175ad5ea7aa68a9a6fe214b30be30a37eb76be6d16ad4",
	},
}

// TestSegmentationDeterminismTable runs every segmentation entry point on
// the table's clips: all must give the pinned digests, and every
// silhouette's statistics must equal NewSilhouette's on its mask.
func TestSegmentationDeterminismTable(t *testing.T) {
	cfg := core.DefaultConfig().Segmentation
	for clip, params := range determinismClips() {
		t.Run(clip, func(t *testing.T) {
			v, err := synth.Generate(params)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := segmentation.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := segDigests[clip]
			// check compares one entry point's output with the pins; a nil
			// background is an entry point that does not return one.
			check := func(entry string, bg *imaging.Image, sils []segmentation.Silhouette, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", entry, err)
				}
				if bg != nil {
					if got := backgroundDigest(bg); got != want.background {
						t.Errorf("%s: background digest %s, want %s", entry, got, want.background)
					}
				}
				if len(sils) != len(v.Frames) {
					t.Fatalf("%s: %d silhouettes for %d frames", entry, len(sils), len(v.Frames))
				}
				h := sha256.New()
				for k, s := range sils {
					h.Write(jobs.PackMask(s.Mask))
					ref := segmentation.NewSilhouette(k, s.Mask)
					if s.Frame != k || s.Area != ref.Area || s.BBox != ref.BBox ||
						math.Float64bits(s.Centroid.X) != math.Float64bits(ref.Centroid.X) ||
						math.Float64bits(s.Centroid.Y) != math.Float64bits(ref.Centroid.Y) {
						t.Errorf("%s frame %d: statistics {%d %d %v %v}, NewSilhouette gives {%d %d %v %v}", entry, k,
							s.Frame, s.Area, s.Centroid, s.BBox, ref.Frame, ref.Area, ref.Centroid, ref.BBox)
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != want.silhouettes {
					t.Errorf("%s: silhouettes digest %s, want %s", entry, got, want.silhouettes)
				}
			}

			bg, _, sils, err := pipe.RunDetailed(v.Frames)
			check("RunDetailed", bg, sils, err)
			bg, _, sils, err = pipe.RunDetailedWorkers(v.Frames, 2)
			check("RunDetailedWorkers(2)", bg, sils, err)
			sils, err = pipe.Run(v.Frames)
			check("Run", nil, sils, err)
			sils, err = pipe.RunWorkers(v.Frames, 2)
			check("RunWorkers(2)", nil, sils, err)
			bg, sils, err = pipe.SegmentClip(v.Frames, 2)
			check("SegmentClip(2)", bg, sils, err)

			bg, err = pipe.EstimateBackground(v.Frames)
			if err != nil {
				t.Fatal(err)
			}
			sils = make([]segmentation.Silhouette, len(v.Frames))
			for k, f := range v.Frames {
				st, err := pipe.SegmentFrame(f, bg)
				if err != nil {
					t.Fatal(err)
				}
				sils[k] = segmentation.NewSilhouette(k, st.Object)
			}
			check("SegmentFrame", bg, sils, nil)
		})
	}
}

// backgroundDigest is the SHA-256 of a background: width, height, then RGB
// row-major.
func backgroundDigest(bg *imaging.Image) string {
	h := sha256.New()
	putInts(h, bg.W, bg.H)
	for _, c := range bg.Pix {
		h.Write([]byte{c.R, c.G, c.B})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// twoDecimals rounds the annotation to the two decimals a truth file
// carries, so the table analyses the pose a client would upload.
func twoDecimals(p stickmodel.Pose) stickmodel.Pose {
	r := func(x float64) float64 {
		v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', 2, 64), 64)
		return v
	}
	p.X, p.Y = r(p.X), r(p.Y)
	for l := range p.Rho {
		p.Rho[l] = r(p.Rho[l])
	}
	return p
}

// poseDigest hashes what the pose stage decides and what Table 2 scoring
// makes of it, bit for bit.
func poseDigest(res *core.Result) string {
	h := sha256.New()
	for k, est := range res.Estimates {
		putFloats(h, res.Poses[k].X, res.Poses[k].Y)
		putFloats(h, res.Poses[k].Rho[:]...)
		putFloats(h, est.Fitness)
		if est.GA == nil {
			putInts(h, -1)
			continue
		}
		putInts(h, est.GA.Evaluations, est.GA.MemoHits, est.GA.Generations, est.GA.BestFoundAt, len(est.GA.History))
		putFloats(h, est.GA.History...)
	}
	r := res.Report
	putInts(h, r.Passed, r.Total, len(r.Results), len(r.Advice))
	putFloats(h, r.Score)
	for _, rr := range r.Results {
		passed := 0
		if rr.Passed {
			passed = 1
		}
		h.Write([]byte(rr.Rule.ID))
		putInts(h, rr.Window.From, rr.Window.To, rr.AtFrame, passed)
		putFloats(h, rr.Value)
	}
	for _, a := range r.Advice {
		h.Write([]byte(a))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func putFloats(h hash.Hash, fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

func putInts(h hash.Hash, is ...int) {
	var b [8]byte
	for _, i := range is {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(i)))
		h.Write(b[:])
	}
}
