package sljmotion

// ClipSession is the streaming-upload client of the web service's chunked
// clip-ingest protocol (DESIGN.md §14): open a session, append frame
// chunks as they become available, then seal — the server segments the
// complete clip once, as the batch pipeline does — to obtain content
// hashes, and analyse the stored clip by hash without re-uploading a
// byte. The analysis response is byte-identical (modulo stage timings)
// to submitting the same frames inline.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// ClipSeal is the terminal document of a sealed ingest session: the
// content hashes a by-hash analysis needs.
type ClipSeal struct {
	ClipID          string `json:"clip_id"`
	FramesHash      string `json:"frames_hash"`
	SilhouettesHash string `json:"silhouettes_hash"`
	Frames          int    `json:"frames"`
	// Deprecated: the server no longer segments while a clip uploads, so
	// nothing is reused and the field is always 0.
	EagerReused int `json:"eager_reused"`
	// Deprecated: always 0; see EagerReused.
	EagerResegmented int `json:"eager_resegmented"`
}

// ClipAnalyzeOptions shape a by-hash analysis of a sealed clip.
type ClipAnalyzeOptions struct {
	// Stages selects a pipeline range in ParseStageSelection form ("" = all).
	Stages string
	// IncludePoses / IncludeSilhouettes shape the response document.
	IncludePoses       bool
	IncludeSilhouettes bool
}

// ClipSession is one chunked clip upload against a running slj-serve.
type ClipSession struct {
	base   string
	client *http.Client
	id     string
	chunk  int
}

// OpenClipSession opens an ingest session on the server at base (e.g.
// "http://localhost:8080"). client may be nil for http.DefaultClient.
func OpenClipSession(base string, client *http.Client) (*ClipSession, error) {
	if client == nil {
		client = http.DefaultClient
	}
	cs := &ClipSession{base: strings.TrimRight(base, "/"), client: client}
	resp, err := client.Post(cs.base+"/v1/clips", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("sljmotion: open clip session: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		ClipID string `json:"clip_id"`
	}
	if err := decodeOrError(resp, http.StatusCreated, &doc); err != nil {
		return nil, err
	}
	if doc.ClipID == "" {
		return nil, fmt.Errorf("sljmotion: open clip session: empty clip id")
	}
	cs.id = doc.ClipID
	return cs, nil
}

// ID returns the server-assigned clip id.
func (cs *ClipSession) ID() string { return cs.id }

// AppendFrames uploads the next chunk of frames. Chunks are numbered
// automatically; the server rejects anything out of sequence, so a failed
// append can simply be retried.
func (cs *ClipSession) AppendFrames(frames []*Image) error {
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	if err := mw.WriteField("chunk", strconv.Itoa(cs.chunk)); err != nil {
		return err
	}
	for i, f := range frames {
		part, err := mw.CreateFormFile("frames", fmt.Sprintf("frame_%04d.ppm", i))
		if err != nil {
			return err
		}
		if err := imaging.EncodePPM(part, f); err != nil {
			return err
		}
	}
	if err := mw.Close(); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut,
		cs.base+"/v1/clips/"+cs.id+"/frames", &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := cs.client.Do(req)
	if err != nil {
		return fmt.Errorf("sljmotion: append chunk %d: %w", cs.chunk, err)
	}
	defer resp.Body.Close()
	if err := decodeOrError(resp, http.StatusOK, &struct{}{}); err != nil {
		return err
	}
	cs.chunk++
	return nil
}

// Seal closes the session: the server segments the complete clip and
// stores the frames and silhouettes artifacts. Idempotent — resealing
// returns the same document.
func (cs *ClipSession) Seal() (*ClipSeal, error) {
	resp, err := cs.client.Post(cs.base+"/v1/clips/"+cs.id+"/seal", "application/json", nil)
	if err != nil {
		return nil, fmt.Errorf("sljmotion: seal clip: %w", err)
	}
	defer resp.Body.Close()
	var doc ClipSeal
	if err := decodeOrError(resp, http.StatusOK, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Analyze runs the full analysis of the sealed clip by content hash and
// returns the service's JSON response document. The clip must be sealed
// first. The response is byte-identical (modulo the stage_ms timings) to
// submitting the same frames inline.
func (cs *ClipSession) Analyze(seal *ClipSeal, manualFirst Pose, opts ClipAnalyzeOptions) ([]byte, error) {
	reqDoc := map[string]any{
		"frames_ref": seal.FramesHash,
		"manual_first": map[string]any{
			"x": manualFirst.X, "y": manualFirst.Y, "rho": manualFirst.Rho[:],
		},
	}
	if opts.Stages != "" {
		reqDoc["stages"] = opts.Stages
	}
	if opts.IncludePoses {
		reqDoc["poses"] = true
	}
	if opts.IncludeSilhouettes {
		reqDoc["silhouettes"] = true
	}
	body, err := json.Marshal(reqDoc)
	if err != nil {
		return nil, err
	}
	resp, err := cs.client.Post(cs.base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("sljmotion: analyze by hash: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, serviceError(resp.StatusCode, raw)
	}
	return raw, nil
}

// decodeOrError decodes the expected success document, or surfaces the
// service's error envelope.
func decodeOrError(resp *http.Response, want int, into any) error {
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return serviceError(resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, into)
}

// serviceError renders the service's JSON error envelope as a Go error.
func serviceError(status int, raw []byte) error {
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		if env.Code != "" {
			return fmt.Errorf("sljmotion: service error %d (%s): %s", status, env.Code, env.Error)
		}
		return fmt.Errorf("sljmotion: service error %d: %s", status, env.Error)
	}
	return fmt.Errorf("sljmotion: service error %d: %s", status, bytes.TrimSpace(raw))
}
