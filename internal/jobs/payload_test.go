package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/synth"
)

// analysisRequest builds a small real request off the synthetic generator.
func analysisRequest(t *testing.T) core.Request {
	t.Helper()
	params := synth.DefaultJumpParams()
	params.Frames = 4
	v, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	return core.Request{
		Frames:       v.Frames,
		ManualFirst:  v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
		IncludePoses: true,
	}
}

// TestPayloadRoundTripExact is the core property of the payload refactor:
// encode → JSON → decode reconstructs a request whose frames, manual pose
// and options are identical, and whose cache key equals the stamped one —
// so a remote worker computes the same content address the front end did.
func TestPayloadRoundTripExact(t *testing.T) {
	req := analysisRequest(t)
	cfgFP := ConfigFingerprint(core.DefaultConfig())

	p, err := NewAnalysisPayload(cfgFP, req)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != KindAnalysis || p.ConfigFP != cfgFP {
		t.Fatalf("payload header: %q %q", p.Kind, p.ConfigFP)
	}
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Payload
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.AnalysisRequest()
	if err != nil {
		t.Fatal(err)
	}

	if got.ManualFirst != req.ManualFirst {
		t.Errorf("manual pose drifted: %+v vs %+v", got.ManualFirst, req.ManualFirst)
	}
	if got.IncludePoses != req.IncludePoses || got.IncludeSilhouettes != req.IncludeSilhouettes {
		t.Error("response shaping drifted")
	}
	if len(got.Frames) != len(req.Frames) {
		t.Fatalf("frames = %d, want %d", len(got.Frames), len(req.Frames))
	}
	for i := range got.Frames {
		if !reflect.DeepEqual(got.Frames[i], req.Frames[i]) {
			t.Fatalf("frame %d not bit-identical", i)
		}
	}
	if RequestKey(cfgFP, got) != RequestKey(cfgFP, req) {
		t.Error("decoded request hashes to a different cache key")
	}
	if key, ok := back.Key(); !ok || key != RequestKey(cfgFP, req) {
		t.Error("stamped CacheKey disagrees with the recomputed key")
	}
}

// TestPayloadArtifactEntry round-trips a mid-pipeline request: silhouettes
// in, then poses+dimensions in.
func TestPayloadArtifactEntry(t *testing.T) {
	params := synth.DefaultJumpParams()
	params.Frames = 4
	v, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}

	// Poses + dimensions (tracking..scoring re-entry).
	req := core.Request{
		Poses:      v.Truth,
		Dimensions: v.Dims,
		Stages:     core.SelectStages(core.StageTracking, core.StageScoring),
	}
	p, err := NewAnalysisPayload("fp", req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(p)
	var back Payload
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.AnalysisRequest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Poses, req.Poses) {
		t.Error("poses drifted through the wire")
	}
	if got.Dimensions != req.Dimensions {
		t.Error("dimensions drifted through the wire")
	}
	if got.Stages.Normalize() != req.Stages.Normalize() {
		t.Errorf("stage selection drifted: %v", got.Stages)
	}

	// Silhouettes (pose-stage re-entry): masks round-trip bit-identically
	// and the derived stats (area, centroid, bbox) are recomputed.
	mask := imaging.NewMask(9, 7)
	mask.Bits[3] = true
	mask.Bits[13] = true
	mask.Bits[62] = true
	sreq := core.Request{
		Silhouettes: []segmentation.Silhouette{segmentation.NewSilhouette(2, mask)},
		ManualFirst: v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
		Stages:      core.OnlyStage(core.StagePose),
	}
	sp, err := NewAnalysisPayload("fp", sreq)
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := json.Marshal(sp)
	var sback Payload
	if err := json.Unmarshal(sraw, &sback); err != nil {
		t.Fatal(err)
	}
	sgot, err := sback.AnalysisRequest()
	if err != nil {
		t.Fatal(err)
	}
	if len(sgot.Silhouettes) != 1 {
		t.Fatalf("silhouettes = %d", len(sgot.Silhouettes))
	}
	s := sgot.Silhouettes[0]
	if s.Frame != 2 || !reflect.DeepEqual(s.Mask.Bits, mask.Bits) {
		t.Error("mask drifted through the wire")
	}
	if s.Area != 3 {
		t.Errorf("derived area = %d, want 3", s.Area)
	}
}

// TestRequestKeyCoversArtifacts pins that the content address separates
// artifact-bearing (frame-less) requests: two re-scores over different
// poses, silhouettes or dimensions must never share a cache key — they are
// ring-placement and result-cache identities in the remote path.
func TestRequestKeyCoversArtifacts(t *testing.T) {
	params := synth.DefaultJumpParams()
	params.Frames = 4
	v, err := synth.Generate(params)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Request{
		Poses:      v.Truth,
		Dimensions: v.Dims,
		Stages:     core.SelectStages(core.StageTracking, core.StageScoring),
	}
	if RequestKey("fp", base) != RequestKey("fp", base) {
		t.Fatal("identical artifact requests must share a key")
	}

	changed := base
	changed.Poses = append([]stickmodel.Pose(nil), v.Truth...)
	changed.Poses[1].Rho[3] += 0.5
	if RequestKey("fp", changed) == RequestKey("fp", base) {
		t.Error("a pose change must separate the keys")
	}

	dims := base
	dims.Dimensions.Length[2] += 1
	if RequestKey("fp", dims) == RequestKey("fp", base) {
		t.Error("a dimensions change must separate the keys")
	}

	mask := imaging.NewMask(8, 8)
	mask.Bits[5] = true
	sil := core.Request{
		Silhouettes: []segmentation.Silhouette{segmentation.NewSilhouette(0, mask)},
		ManualFirst: v.ManualAnnotation(synth.DefaultAnnotationError(), 1),
		Stages:      core.OnlyStage(core.StagePose),
	}
	mask2 := imaging.NewMask(8, 8)
	mask2.Bits[6] = true
	sil2 := sil
	sil2.Silhouettes = []segmentation.Silhouette{segmentation.NewSilhouette(0, mask2)}
	if RequestKey("fp", sil) == RequestKey("fp", sil2) {
		t.Error("a silhouette change must separate the keys")
	}
}

func TestPayloadRejectsCorruptWire(t *testing.T) {
	if _, err := (Payload{Kind: "bogus/v9"}).AnalysisRequest(); err == nil {
		t.Error("unknown kind must be rejected")
	}
	bad := Payload{Kind: KindAnalysis, Frames: []FrameWire{{W: 2, H: 2, RGB: []byte{1, 2, 3}}}}
	if _, err := bad.AnalysisRequest(); err == nil {
		t.Error("truncated frame bytes must be rejected")
	}
	badPose := Payload{Kind: KindAnalysis, Manual: &PoseWire{X: 1, Y: 1, Rho: []float64{1, 2}}}
	if _, err := badPose.AnalysisRequest(); err == nil {
		t.Error("short rho vector must be rejected")
	}
	badSel := Payload{Kind: KindAnalysis, Stages: "warp"}
	if _, err := badSel.AnalysisRequest(); err == nil {
		t.Error("unknown stage selection must be rejected")
	}
	badMask := Payload{Kind: KindAnalysis, Silhouettes: []SilhouetteWire{{W: 8, H: 8, Mask: []byte{0}}}}
	if _, err := badMask.AnalysisRequest(); err == nil {
		t.Error("truncated mask must be rejected")
	}
	both := Payload{Kind: KindAnalysis, Frames: []FrameWire{{W: 1, H: 1, RGB: []byte{1, 2, 3}}}, FramesRef: "ab"}
	if _, err := both.AnalysisRequest(); err == nil {
		t.Error("inline frames next to a frames ref must be rejected")
	}
}

func TestMaskPacking(t *testing.T) {
	m := imaging.NewMask(10, 3)
	for _, i := range []int{0, 7, 8, 9, 15, 29} {
		m.Bits[i] = true
	}
	back, err := UnpackMask(10, 3, PackMask(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Bits, m.Bits) {
		t.Error("pack/unpack not a round trip")
	}
	if _, err := UnpackMask(0, 3, nil); err == nil {
		t.Error("zero-size mask must be rejected")
	}
	padded := PackMask(m)
	padded[len(padded)-1] |= 1
	if _, err := UnpackMask(10, 3, padded); err == nil {
		t.Error("a mask with padding bits set must be rejected")
	}
}

// overflowPayload is a worker-intake body whose frame sides multiply to
// 2^64: 3*w*h wraps to 0, so without a bound on each side the empty RGB
// buffer passes the size check.
const overflowPayload = `{"kind":"slj-analysis/v1","stages":"segmentation","frames":[` +
	`{"w":4294967296,"h":4294967296,"rgb":""},` +
	`{"w":4294967296,"h":4294967296,"rgb":""},` +
	`{"w":4294967296,"h":4294967296,"rgb":""}]}`

// TestDecodeRejectsOversizedDimensions bounds each side of a wire frame,
// background and silhouette before any size product is taken.
func TestDecodeRejectsOversizedDimensions(t *testing.T) {
	var p Payload
	if err := json.Unmarshal([]byte(overflowPayload), &p); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AnalysisRequest(); err == nil {
		t.Error("frames of 2^32 x 2^32 must be rejected")
	}
	huge := 1 << 32
	sil := Payload{Kind: KindAnalysis, Silhouettes: []SilhouetteWire{{W: huge, H: huge}}}
	if _, err := sil.AnalysisRequest(); err == nil {
		t.Error("a silhouette of 2^32 x 2^32 must be rejected")
	}
	bg := Payload{Kind: KindAnalysis, Background: &FrameWire{W: huge, H: huge}}
	if _, err := bg.AnalysisRequest(); err == nil {
		t.Error("a background of 2^32 x 2^32 must be rejected")
	}
	wide := imaging.MaxDim + 1
	if _, err := decodeFrame(FrameWire{W: wide, H: 1, RGB: make([]byte, 3*wide)}); err == nil {
		t.Errorf("a frame %d px wide must be rejected", wide)
	}
	if _, err := UnpackMask(1, wide, make([]byte, (wide+7)/8)); err == nil {
		t.Errorf("a mask %d px tall must be rejected", wide)
	}
}

// TestLocalKeyTrust: only a payload this process built or resolved
// carries a local key, and only under the fingerprint it was computed
// with. A payload decoded from JSON (worker intake, journal replay) has
// none, so the executor re-keys it instead of trusting a stamp, until an
// intake installs the request it decoded and the key it computed for it
// (WithResolved). A by-reference payload is keyed from its frames ref with
// no frames in hand, under the key of the same clip sent inline.
func TestLocalKeyTrust(t *testing.T) {
	req := analysisRequest(t)
	cfgFP := ConfigFingerprint(core.DefaultConfig())
	p, err := NewAnalysisPayload(cfgFP, req)
	if err != nil {
		t.Fatal(err)
	}
	key := RequestKey(cfgFP, req)
	if got, ok := p.LocalKey(cfgFP); !ok || got != key {
		t.Fatal("a built payload must carry the key it was built with")
	}
	if _, ok := p.LocalKey("another-config"); ok {
		t.Fatal("a local key must not answer for another config fingerprint")
	}
	byRef := mustArtifactPayload(t, cfgFP, req)
	if got, ok := byRef.LocalKey(cfgFP); !ok || got != key || byRef.CacheKey != p.CacheKey {
		t.Error("a built by-reference payload must carry the key of the same clip sent inline")
	}

	for name, built := range map[string]Payload{"inline": p, "by-reference": byRef} {
		raw, err := json.Marshal(built)
		if err != nil {
			t.Fatal(err)
		}
		var wire Payload
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatal(err)
		}
		blob, err := encodeJournalPayload(built)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := decodeJournalPayload(blob)
		if err != nil {
			t.Fatal(err)
		}
		for how, q := range map[string]Payload{"JSON-decoded": wire, "replayed": replayed} {
			if _, ok := q.LocalKey(cfgFP); ok {
				t.Errorf("%s %s payload carries a local key", how, name)
			}
			if got, err := RefKey(cfgFP, q.FramesRef, req); err != nil || got != key {
				t.Errorf("%s %s payload re-keys to %s (%v), want %s", how, name, got, err, key)
			}
		}
		q := wire.WithResolved(req, key, cfgFP)
		if got, ok := q.LocalKey(cfgFP); !ok || got != key {
			t.Errorf("%s payload resolved here must carry the key computed here", name)
		}
		if _, ok := q.LocalKey("another-config"); ok {
			t.Errorf("%s payload: a resolved key must not answer for another config fingerprint", name)
		}
	}
	if _, ok := (Payload{}).LocalKey(cfgFP); ok {
		t.Error("an empty payload carries a local key")
	}
	if _, err := NewArtifactPayload(cfgFP, "ab", req); err == nil {
		t.Error("a frames ref that is not a content hash must be rejected")
	}
}

// mustArtifactPayload builds the by-reference payload of req: its frames
// named by their artifact hash and left out.
func mustArtifactPayload(t *testing.T, cfgFP string, resolved core.Request) Payload {
	t.Helper()
	req := resolved
	req.Frames = nil
	p, err := NewArtifactPayload(cfgFP, FramesHash(resolved.Frames).String(), req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestJournalPayloadEncoding pins the submit blob's form: the tag, then a
// frame-less JSON header, then the frames' raw RGB — no base64 — and a
// decode that gives back the payload and, through it, the same request
// key. A blob without the tag is read as the JSON older releases wrote.
func TestJournalPayloadEncoding(t *testing.T) {
	req := analysisRequest(t)
	cfgFP := ConfigFingerprint(core.DefaultConfig())
	p, err := NewAnalysisPayload(cfgFP, req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeJournalPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	pixels := 0
	for _, f := range req.Frames {
		pixels += 3 * f.W * f.H
	}
	if !bytes.HasPrefix(blob, []byte(journalPayloadTag)) {
		t.Fatalf("blob opens with %q, want the raw-frame tag", blob[:16])
	}
	legacy, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(legacy) || len(blob) < pixels {
		t.Fatalf("blob is %d bytes for %d pixel bytes (JSON form %d)", len(blob), pixels, len(legacy))
	}
	if bytes.Contains(blob[:len(blob)-pixels], []byte(`"rgb":"`)) {
		t.Fatal("the header carries base64 pixels")
	}
	for name, b := range map[string][]byte{"raw": blob, "legacy JSON": legacy} {
		back, err := decodeJournalPayload(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, _ := json.Marshal(back); !bytes.Equal(got, legacy) {
			t.Fatalf("%s: decoded payload differs from the encoded one", name)
		}
		got, err := back.AnalysisRequest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if RequestKey(cfgFP, got) != RequestKey(cfgFP, req) {
			t.Fatalf("%s: decoded request keys differently", name)
		}
	}
	// A payload whose frames cannot decode keeps the JSON form.
	bad := p
	bad.Frames = []FrameWire{{W: 2, H: 2, RGB: []byte{1, 2, 3}}}
	if b, err := encodeJournalPayload(bad); err != nil || !json.Valid(b) {
		t.Fatalf("inconsistent frame: err %v, JSON %v", err, json.Valid(b))
	}
}
