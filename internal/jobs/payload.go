package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"github.com/sljmotion/sljmotion/internal/cache"
	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// KindAnalysis marks a Payload carrying one staged analysis request. The
// version suffix lets worker nodes reject payloads from incompatible
// front ends instead of mis-decoding them.
const KindAnalysis = "slj-analysis/v1"

// ArtifactPayloadHeader marks a worker submission whose payload names its
// frames by content hash (Payload.FramesRef). The worker intake
// reads it before the body, so by-reference submissions get a tight body
// cap instead of the base64-inflation headroom inline clips need.
const ArtifactPayloadHeader = "X-SLJ-Artifact-Payload"

// Payload is one unit of asynchronous work as *data*: a typed,
// JSON-serializable description of a staged analysis request. Unlike the
// closure-based task it replaced, a Payload can leave the process — the
// remote dispatcher posts it to a worker node as JSON — while the in-process
// Manager hands it to its Executor without any serialisation round trip.
//
// The artifact fields mirror core.Request: frames enter a selection starting
// at segmentation, silhouettes one starting at pose, poses+dimensions one
// starting at tracking or scoring. Binary artifacts use compact encodings
// (raw interleaved RGB for frames, bit-packed masks for silhouettes), which
// encoding/json transports as base64.
type Payload struct {
	// Kind discriminates payload types; KindAnalysis is the only kind today.
	Kind string `json:"kind"`
	// ConfigFP is the analyzer-config fingerprint of the submitting front
	// end. Executors recompute cache keys when it differs from their own.
	ConfigFP string `json:"config_fp,omitempty"`
	// CacheKey is the hex content address of the request (RequestKey) under
	// ConfigFP. The remote dispatcher hashes it onto the node ring so
	// identical clips land on the node that already cached their result.
	CacheKey string `json:"cache_key,omitempty"`
	// Stages is the stage selection in ParseStageSelection form ("" = all).
	Stages string `json:"stages,omitempty"`
	// IncludePoses / IncludeSilhouettes shape the serialised response.
	IncludePoses       bool `json:"include_poses,omitempty"`
	IncludeSilhouettes bool `json:"include_silhouettes,omitempty"`

	// Manual is the hand-drawn first-frame stick figure, when present.
	Manual *PoseWire `json:"manual_first,omitempty"`
	// Frames is the clip for selections starting at segmentation.
	Frames []FrameWire `json:"frames,omitempty"`
	// Silhouettes feeds selections starting at the pose stage.
	Silhouettes []SilhouetteWire `json:"silhouettes,omitempty"`
	// Background carries the Step 1 estimate through when segmentation is
	// skipped.
	Background *FrameWire `json:"background,omitempty"`
	// Poses and Dimensions feed selections starting at tracking/scoring.
	Poses      []PoseWire      `json:"poses,omitempty"`
	Dimensions *DimensionsWire `json:"dimensions,omitempty"`

	// FramesRef names the clip's frames/v1 artifact by content hash instead
	// of carrying Frames inline, shrinking a megabytes payload to a few
	// hundred bytes. A worker that does not hold the artifact pulls it from
	// ArtifactOrigin — the submitting front end's base URL, stamped by the
	// dispatcher — via GET /v1/artifacts/{hash}, and caches it locally, on a
	// result miss only: the key names the frames by this hash (RefKey).
	FramesRef      string `json:"frames_ref,omitempty"`
	ArtifactOrigin string `json:"artifact_origin,omitempty"`

	// ReplicaTarget is the base URL of the ring successor for this payload's
	// key, stamped by a replicating dispatcher. A worker that completes the
	// job pushes its result/v1 artifact, and nothing else, to the target, so
	// failover — which re-hashes to the successor — finds a cache hit
	// instead of recomputing. The successor needs no frames to find it: a
	// by-reference request is keyed by its FramesRef. Empty when replication
	// is off or the fleet has no second routable node.
	ReplicaTarget string `json:"replica_target,omitempty"`

	// decoded short-circuits AnalysisRequest for payloads that never left
	// the process: the in-process Manager executes the exact request the
	// submitter built, skipping a full decode copy of the clip. Unexported,
	// so it never crosses the wire — remote workers always decode.
	decoded *core.Request
	// key is the key this process computed for decoded (RefKey), when it
	// built the payload or resolved it (WithResolved), under config
	// fingerprint keyFP ("" = none). Unexported like decoded: a payload
	// decoded from JSON (worker intake, journal replay) never carries one,
	// so only a key this process derived from the exact request is ever
	// reused (LocalKey).
	key   cache.Key
	keyFP string
}

// FrameWire is one RGB frame on the wire: raw interleaved RGB bytes,
// row-major (base64 in JSON).
type FrameWire struct {
	W   int    `json:"w"`
	H   int    `json:"h"`
	RGB []byte `json:"rgb"`
}

// PoseWire is one stick-model pose on the wire.
type PoseWire struct {
	X   float64   `json:"x"`
	Y   float64   `json:"y"`
	Rho []float64 `json:"rho"`
}

// SilhouetteWire is one segmented frame on the wire. Mask is bit-packed
// row-major, MSB first within each byte; area/centroid/bbox are rederived
// from the mask on decode, so they cannot drift from it.
type SilhouetteWire struct {
	Frame int    `json:"frame"`
	W     int    `json:"w"`
	H     int    `json:"h"`
	Mask  []byte `json:"mask"`
}

// DimensionsWire carries the calibrated stick dimensions on the wire.
type DimensionsWire struct {
	Length []float64 `json:"length"`
	Thick  []float64 `json:"thick"`
}

// ConfigFingerprint renders the analyzer configuration deterministically
// and hashes it down to a fixed-width token. The config tree is plain data
// (ints, floats, bools, fixed arrays), so the formatted form is stable and
// any config change — a different threshold, a different GA budget —
// changes the fingerprint and therefore every cache key derived from it.
// The fingerprint travels in every dispatch payload and is only ever
// compared or hashed, never parsed, so the compact form keeps by-reference
// payloads small.
func ConfigFingerprint(cfg core.Config) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", cfg)))
	return hex.EncodeToString(sum[:])
}

// RequestKey computes the content address of one analysis request: the
// SHA-256 over the config fingerprint, the stage selection, the
// response-shaping options, the manual first-frame pose and every input
// artifact — the frames by the hash of their frames/v1 artifact
// (FramesHash), and for mid-pipeline entry the silhouettes, poses,
// dimensions and background. Identical requests under identical
// configuration hash to the same key; any difference — one pixel, one
// config field, a different stage range, a different pose value — yields a
// different key. It is both the result-cache key and the remote
// dispatcher's ring placement key, so artifact-bearing (frame-less)
// requests must be covered too: two tracking..scoring re-scores over
// different poses may never collide. A request carrying only the frames'
// artifact hash is keyed alike, without the pixels (RefKey).
func RequestKey(cfgFP string, req core.Request) cache.Key {
	if len(req.Frames) == 0 {
		return requestKey(cfgFP, nil, req)
	}
	frames := FramesHash(req.Frames)
	return requestKey(cfgFP, &frames, req)
}

// RefKey is RequestKey for req with its frames named by framesRef, the
// hash of their frames/v1 artifact, in place of req.Frames: it reads no
// pixels. An empty framesRef keys req as RequestKey does; one that is not a
// content hash is an error.
func RefKey(cfgFP, framesRef string, req core.Request) (cache.Key, error) {
	if framesRef == "" {
		return RequestKey(cfgFP, req), nil
	}
	frames, ok := cache.ParseKey(framesRef)
	if !ok {
		return cache.Key{}, fmt.Errorf("jobs: frames ref %q is not a content hash", framesRef)
	}
	return requestKey(cfgFP, &frames, req), nil
}

// requestKey hashes a request whose frames, when it has any, are the
// frames/v1 artifact hashing to frames.
func requestKey(cfgFP string, frames *cache.Key, req core.Request) cache.Key {
	k := cache.NewKeyer()
	k.WriteString("slj-analysis-response/v3")
	k.WriteString(cfgFP)
	k.WriteString(req.Stages.Normalize().String())
	k.WriteBool(req.IncludePoses)
	k.WriteBool(req.IncludeSilhouettes)
	writePose := func(p stickmodel.Pose) {
		k.WriteFloat(p.X)
		k.WriteFloat(p.Y)
		for _, rho := range p.Rho {
			k.WriteFloat(rho)
		}
	}
	writePose(req.ManualFirst)
	k.WriteBool(frames != nil)
	if frames != nil {
		k.WriteBytes(frames[:])
	}
	k.WriteInt(len(req.Silhouettes))
	for _, s := range req.Silhouettes {
		k.WriteInt(s.Frame)
		k.WriteInt(s.Mask.W)
		k.WriteInt(s.Mask.H)
		k.WriteBytes(PackMask(s.Mask))
	}
	k.WriteInt(len(req.Poses))
	for _, p := range req.Poses {
		writePose(p)
	}
	for i := range req.Dimensions.Length {
		k.WriteFloat(req.Dimensions.Length[i])
		k.WriteFloat(req.Dimensions.Thick[i])
	}
	k.WriteBool(req.Background != nil)
	if req.Background != nil {
		k.WriteInt(req.Background.W)
		k.WriteInt(req.Background.H)
		k.WriteBytes(req.Background.Bytes())
	}
	return k.Sum()
}

// framesHeader opens a frames/v1 artifact blob: the magic and kind tag
// package artifacts decodes (it imports this package, so the layout is here).
const framesHeader = "SLJA\x01"

// WriteFrames writes a clip's frames/v1 encoding to w: the header, the
// frame count, then per frame its width, height and raw interleaved RGB,
// integers as little-endian uint32. It is the one definition of the layout:
// artifacts.EncodeFrames writes it into the stored blob, and FramesHash
// streams it into SHA-256 without building the blob.
func WriteFrames(w io.Writer, frames []*imaging.Image) error {
	buf := binary.LittleEndian.AppendUint32([]byte(framesHeader), uint32(len(frames)))
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, f := range frames {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(f.W))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.H))
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if _, err := w.Write(f.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// FramesHash returns the content hash of the clip's frames/v1 artifact,
// artifacts.HashOf(artifacts.EncodeFrames(frames)), in one pass over the
// pixels and without building the blob.
func FramesHash(frames []*imaging.Image) cache.Key {
	h := sha256.New()
	_ = WriteFrames(h, frames) // a hash.Hash never fails a Write
	var key cache.Key
	h.Sum(key[:0])
	return key
}

// NewAnalysisPayload encodes a staged analysis request into a serializable
// payload, stamping the submitting config fingerprint and the request's
// cache key. The encoding is lossless: AnalysisRequest reconstructs a
// request whose analysis — and cache key — are identical.
func NewAnalysisPayload(cfgFP string, req core.Request) (Payload, error) {
	if err := req.Stages.Validate(); err != nil {
		return Payload{}, err
	}
	p := newPayload(cfgFP, RequestKey(cfgFP, req), req)
	for _, f := range req.Frames {
		p.Frames = append(p.Frames, encodeFrame(f))
	}
	for _, s := range req.Silhouettes {
		p.Silhouettes = append(p.Silhouettes, SilhouetteWire{
			Frame: s.Frame, W: s.Mask.W, H: s.Mask.H, Mask: PackMask(s.Mask),
		})
	}
	if req.Background != nil {
		bg := encodeFrame(req.Background)
		p.Background = &bg
	}
	for _, pose := range req.Poses {
		p.Poses = append(p.Poses, *encodePose(pose))
	}
	if req.Dimensions != (stickmodel.Dimensions{}) {
		p.Dimensions = &DimensionsWire{
			Length: append([]float64(nil), req.Dimensions.Length[:]...),
			Thick:  append([]float64(nil), req.Dimensions.Thick[:]...),
		}
	}
	return p, nil
}

// newPayload starts the payload of req under key: the fields every
// payload carries, and req as its in-process decoded request.
func newPayload(cfgFP string, key cache.Key, req core.Request) Payload {
	p := Payload{
		Kind:               KindAnalysis,
		ConfigFP:           cfgFP,
		CacheKey:           key.String(),
		IncludePoses:       req.IncludePoses,
		IncludeSilhouettes: req.IncludeSilhouettes,
		decoded:            &req,
		key:                key,
		keyFP:              cfgFP,
	}
	if !req.Stages.Normalize().IsFull() {
		p.Stages = req.Stages.String()
	}
	if req.ManualFirst != (stickmodel.Pose{}) {
		p.Manual = encodePose(req.ManualFirst)
	}
	return p
}

// AnalysisRequest decodes the payload back into a staged analysis request.
// The round trip is exact: frames, poses and masks reconstruct bit- and
// float-identically, so the decoded request's cache key equals CacheKey.
// Payloads that never left the process return the submitter's original
// request without a decode copy. FramesRef is left for the caller to
// resolve (artifacts.PayloadRequest); a payload carrying both inline
// frames and FramesRef is rejected, since the two could disagree and there
// is no principled winner.
func (p Payload) AnalysisRequest() (core.Request, error) {
	if p.Kind != KindAnalysis {
		return core.Request{}, fmt.Errorf("jobs: payload kind %q is not %s", p.Kind, KindAnalysis)
	}
	if p.FramesRef != "" && len(p.Frames) > 0 {
		return core.Request{}, fmt.Errorf("jobs: payload carries both inline frames and frames ref %s", p.FramesRef)
	}
	if p.decoded != nil {
		return *p.decoded, nil
	}
	sel, err := core.ParseStageSelection(p.Stages)
	if err != nil {
		return core.Request{}, err
	}
	req := core.Request{
		Stages:             sel,
		IncludePoses:       p.IncludePoses,
		IncludeSilhouettes: p.IncludeSilhouettes,
	}
	if p.Manual != nil {
		pose, err := decodePose(*p.Manual)
		if err != nil {
			return core.Request{}, fmt.Errorf("jobs: manual pose: %w", err)
		}
		req.ManualFirst = pose
	}
	for i, f := range p.Frames {
		img, err := decodeFrame(f)
		if err != nil {
			return core.Request{}, fmt.Errorf("jobs: frame %d: %w", i, err)
		}
		req.Frames = append(req.Frames, img)
	}
	for i, s := range p.Silhouettes {
		mask, err := UnpackMask(s.W, s.H, s.Mask)
		if err != nil {
			return core.Request{}, fmt.Errorf("jobs: silhouette %d: %w", i, err)
		}
		req.Silhouettes = append(req.Silhouettes, segmentation.NewSilhouette(s.Frame, mask))
	}
	if p.Background != nil {
		bg, err := decodeFrame(*p.Background)
		if err != nil {
			return core.Request{}, fmt.Errorf("jobs: background: %w", err)
		}
		req.Background = bg
	}
	for i, pw := range p.Poses {
		pose, err := decodePose(pw)
		if err != nil {
			return core.Request{}, fmt.Errorf("jobs: pose %d: %w", i, err)
		}
		req.Poses = append(req.Poses, pose)
	}
	if p.Dimensions != nil {
		if len(p.Dimensions.Length) != stickmodel.NumSticks || len(p.Dimensions.Thick) != stickmodel.NumSticks {
			return core.Request{}, fmt.Errorf("jobs: dimensions need %d sticks", stickmodel.NumSticks)
		}
		copy(req.Dimensions.Length[:], p.Dimensions.Length)
		copy(req.Dimensions.Thick[:], p.Dimensions.Thick)
	}
	return req, nil
}

// NewArtifactPayload encodes a by-reference analysis request: framesRef is
// the content hash of the clip's frames/v1 artifact, and req is the rest of
// the request, its frames left unresolved (any it carries are ignored).
// The payload carries only the hash plus the small inline fields, and its
// cache key comes from the hash (RefKey) with no pixel read, so
// by-reference and inline submissions of the same clip share one cache
// entry and one dispatch-ring placement. The executor resolves the frames
// when the job runs (artifacts.PayloadRequest).
func NewArtifactPayload(cfgFP, framesRef string, req core.Request) (Payload, error) {
	if err := req.Stages.Validate(); err != nil {
		return Payload{}, err
	}
	if framesRef == "" {
		return Payload{}, errors.New("jobs: a by-reference payload needs a frames ref")
	}
	key, err := RefKey(cfgFP, framesRef, req)
	if err != nil {
		return Payload{}, err
	}
	req.Frames = nil
	p := newPayload(cfgFP, key, req)
	p.FramesRef = framesRef
	return p, nil
}

// WithResolved returns the payload with req installed as its decoded
// request and key as its local key under config fingerprint cfgFP: an
// intake that already decoded (and resolved) the payload and keyed the
// result stashes both here, so the executor neither decodes nor hashes the
// clip again. key must be RefKey(cfgFP, p.FramesRef, req), computed in this
// process — the same rule NewAnalysisPayload keeps — so LocalKey still
// only answers with a key derived here.
func (p Payload) WithResolved(req core.Request, key cache.Key, cfgFP string) Payload {
	p.decoded = &req
	p.key, p.keyFP = key, cfgFP
	return p
}

// LocalKey returns the key this process computed when it built or
// resolved the payload, if it was computed under config fingerprint cfgFP.
// It saves the executor a second SHA-256 pass over an inline clip. Payloads
// decoded from a process boundary have none until an intake resolves them
// here (ok is false), so a stamped CacheKey — a routing hint from a peer —
// is never trusted to address stored results.
func (p Payload) LocalKey(cfgFP string) (cache.Key, bool) {
	if p.keyFP == "" || p.keyFP != cfgFP {
		return cache.Key{}, false
	}
	return p.key, true
}

// Key parses the payload's cache key. ok is false when the payload carries
// none (or a corrupt one).
func (p Payload) Key() (cache.Key, bool) {
	return cache.ParseKey(p.CacheKey)
}

func encodePose(pose stickmodel.Pose) *PoseWire {
	return &PoseWire{X: pose.X, Y: pose.Y, Rho: append([]float64(nil), pose.Rho[:]...)}
}

func decodePose(pw PoseWire) (stickmodel.Pose, error) {
	if len(pw.Rho) != stickmodel.NumSticks {
		return stickmodel.Pose{}, fmt.Errorf("pose needs %d angles, got %d", stickmodel.NumSticks, len(pw.Rho))
	}
	pose := stickmodel.Pose{X: pw.X, Y: pw.Y}
	copy(pose.Rho[:], pw.Rho)
	return pose, nil
}

func encodeFrame(img *imaging.Image) FrameWire {
	return FrameWire{W: img.W, H: img.H, RGB: append([]byte(nil), img.Bytes()...)}
}

func decodeFrame(f FrameWire) (*imaging.Image, error) {
	if !validDims(f.W, f.H) {
		return nil, fmt.Errorf("invalid size %dx%d", f.W, f.H)
	}
	if len(f.RGB) != 3*f.W*f.H {
		return nil, fmt.Errorf("rgb payload is %d bytes, want %d", len(f.RGB), 3*f.W*f.H)
	}
	img := imaging.NewImage(f.W, f.H)
	copy(img.Bytes(), f.RGB)
	return img, nil
}

// validDims bounds a wire frame's or mask's sides, so 3*w*h cannot
// overflow.
func validDims(w, h int) bool {
	return w > 0 && h > 0 && w <= imaging.MaxDim && h <= imaging.MaxDim
}

// PackMask bit-packs a mask row-major, MSB first within each byte — the
// same layout the web service's mask_b64 response field uses.
func PackMask(m *imaging.Mask) []byte {
	packed := make([]byte, (len(m.Bits)+7)/8)
	for i, b := range m.Bits {
		if b {
			packed[i/8] |= 1 << (7 - i%8)
		}
	}
	return packed
}

// UnpackMask reverses PackMask. The padding bits after the last pixel
// must be zero, as PackMask writes them, so each mask has one encoding.
func UnpackMask(w, h int, packed []byte) (*imaging.Mask, error) {
	if !validDims(w, h) {
		return nil, fmt.Errorf("invalid size %dx%d", w, h)
	}
	if len(packed) != (w*h+7)/8 {
		return nil, fmt.Errorf("mask payload is %d bytes, want %d", len(packed), (w*h+7)/8)
	}
	if pad := w * h % 8; pad != 0 && packed[len(packed)-1]<<pad != 0 {
		return nil, errors.New("mask padding bits are set")
	}
	m := imaging.NewMask(w, h)
	for i := range m.Bits {
		m.Bits[i] = packed[i/8]&(1<<(7-i%8)) != 0
	}
	return m, nil
}

// errNoExecutor rejects Manager construction without an executor.
var errNoExecutor = errors.New("jobs: nil executor")
