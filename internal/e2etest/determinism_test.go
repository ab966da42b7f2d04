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
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/sljmotion/sljmotion"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/jobs"
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
// route, the async job route, a dispatch front end over one worker node and
// a by-hash analysis of the clip streamed through a chunked ingest session
// all serve this document. Only amd64 is populated, for the same reason as
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
		t.Skip("full pipeline through three server stacks")
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
			// another's result cache.
			body, ctype := ClipUpload(t, v, "", false)
			resp, err := http.Post(serviceStack(t, server.DefaultOptions()).URL+"/v1/analyze", ctype, body)
			if err != nil {
				t.Fatal(err)
			}
			syncRaw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("analyze status %d: %s", resp.StatusCode, syncRaw)
			}
			paths := map[string][]byte{
				"analyze": syncRaw,
				"jobs":    submitFull(t, serviceStack(t, server.DefaultOptions()).URL, v),
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

func TestSegmentationDeterminismTable(t *testing.T) {
	for clip, params := range determinismClips() {
		t.Run(clip, func(t *testing.T) {
			v, err := synth.Generate(params)
			if err != nil {
				t.Fatal(err)
			}
			pipe, err := segmentation.New(core.DefaultConfig().Segmentation)
			if err != nil {
				t.Fatal(err)
			}
			bg, _, sils, err := pipe.RunDetailed(v.Frames)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			putInts(h, bg.W, bg.H)
			for _, c := range bg.Pix {
				h.Write([]byte{c.R, c.G, c.B})
			}
			gotBG := hex.EncodeToString(h.Sum(nil))
			h.Reset()
			for _, s := range sils {
				h.Write(jobs.PackMask(s.Mask))
			}
			gotSils := hex.EncodeToString(h.Sum(nil))
			want := segDigests[clip]
			if gotBG != want.background {
				t.Errorf("background digest %s, want %s", gotBG, want.background)
			}
			if gotSils != want.silhouettes {
				t.Errorf("silhouettes digest %s, want %s", gotSils, want.silhouettes)
			}
		})
	}
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
