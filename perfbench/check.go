package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"testing"

	"github.com/sljmotion/sljmotion/internal/e2etest"
	"github.com/sljmotion/sljmotion/internal/jobs"
	"github.com/sljmotion/sljmotion/internal/metrics"
	"github.com/sljmotion/sljmotion/internal/scoring"
	"github.com/sljmotion/sljmotion/internal/segmentation"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
	"github.com/sljmotion/sljmotion/internal/track"
)

// resultDoc is the part of the service's analysis document the checks read.
type resultDoc struct {
	Frames int `json:"frames"`
	Rules  []struct {
		ID     string `json:"id"`
		Passed bool   `json:"passed"`
	} `json:"rules"`
	Poses []struct {
		X   float64    `json:"x"`
		Y   float64    `json:"y"`
		Rho [8]float64 `json:"rho"`
	} `json:"poses"`
	Silhouettes []silOut `json:"silhouettes"`
}

// silOut mirrors the service's silhouette wire form.
type silOut struct {
	Frame int    `json:"frame"`
	W     int    `json:"w"`
	H     int    `json:"h"`
	Area  int    `json:"area"`
	BBox  [4]int `json:"bbox"`
	Mask  string `json:"mask_b64"`
}

// checkWindow verifies every successful window operation's output after the
// window has closed and returns how many failed their check:
//
//   - full_clip: one pose per frame and the seven rule verdicts;
//   - seg_journal: the silhouettes equal segmentation.Pipeline.
//     RunDetailedWorkers on the same clip, byte for byte;
//   - ingest_fleet: the by-hash document equals the inline document of the
//     same clip after e2etest.StripVolatile.
func (b *bench) checkWindow(d *deployment, outs []outcome) int {
	var mu sync.Mutex
	refs := make(map[string][]byte) // clip id → reference bytes
	reference := func(c *clip) ([]byte, error) {
		mu.Lock()
		ref, ok := refs[c.spec.ID]
		mu.Unlock()
		if ok {
			return ref, nil
		}
		var err error
		if b.w.fleet {
			ref, err = inlineDocument(d.url, c, b.w.stages)
		} else {
			ref, err = referenceSilhouettes(c.spec)
		}
		if err != nil {
			return nil, err
		}
		mu.Lock()
		refs[c.spec.ID] = ref
		mu.Unlock()
		return ref, nil
	}

	failed := 0
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(outs); i += clients {
				o := outs[i]
				if o.err != nil {
					continue // already counted
				}
				if err := b.checkOne(o, reference); err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "perfbench: operation %d/%d: wrong output: %v\n", o.op.Client, o.op.N, err)
				}
			}
		}(g)
	}
	wg.Wait()
	return failed
}

func (b *bench) checkOne(o outcome, reference func(*clip) ([]byte, error)) error {
	c := b.reqs[o.op.Client][o.op.N].clip
	if b.w.stages == "" {
		var doc resultDoc
		if err := json.Unmarshal(o.result, &doc); err != nil {
			return err
		}
		return checkFull(doc, c.spec.Params.Frames)
	}
	ref, err := reference(c)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	var got []byte
	if b.w.fleet {
		got, err = stripVolatile(o.result)
	} else {
		got, err = silhouettesOf(o.result)
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("clip %s differs from its reference", c.spec.ID)
	}
	return nil
}

// checkFull is the full-pipeline check: one pose per frame and the seven
// Table 2 verdicts.
func checkFull(doc resultDoc, frames int) error {
	if doc.Frames != frames || len(doc.Poses) != frames {
		return fmt.Errorf("%d poses for %d frames (document says %d)", len(doc.Poses), frames, doc.Frames)
	}
	if len(doc.Rules) != len(scoring.Rules()) {
		return fmt.Errorf("%d rule verdicts, want %d", len(doc.Rules), len(scoring.Rules()))
	}
	return nil
}

// silhouettesOf re-encodes the document's silhouettes in their wire form.
func silhouettesOf(raw []byte) ([]byte, error) {
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	return json.Marshal(doc.Silhouettes)
}

// referenceSilhouettes segments the clip directly through the segmentation
// layer and encodes the silhouettes in the service's wire form.
func referenceSilhouettes(s clipSpec) ([]byte, error) {
	c, _, err := s.generate()
	if err != nil {
		return nil, err
	}
	seg, err := segmentation.New(analyzerConfig().Segmentation)
	if err != nil {
		return nil, err
	}
	_, _, sils, err := seg.RunDetailedWorkers(c.frames, 1)
	if err != nil {
		return nil, err
	}
	out := make([]silOut, len(sils))
	for i, sil := range sils {
		out[i] = silOut{
			Frame: sil.Frame, W: sil.Mask.W, H: sil.Mask.H, Area: sil.Area,
			BBox: [4]int{sil.BBox.X0, sil.BBox.Y0, sil.BBox.X1, sil.BBox.Y1},
			Mask: base64.StdEncoding.EncodeToString(jobs.PackMask(sil.Mask)),
		}
	}
	return json.Marshal(out)
}

// inlineDocument analyses the clip uploaded inline through the front end's
// synchronous route and returns the document after StripVolatile.
func inlineDocument(base string, c *clip, stages string) ([]byte, error) {
	body, ctype, err := c.multipartBody(stages)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/v1/analyze", ctype, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("inline analyze: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return stripVolatile(raw)
}

// stripVolatile applies e2etest.StripVolatile, the repository's definition
// of "equal up to timing", to a service document. The document is decoded
// first, so the helper's failure paths — the only ones that use its
// testing.T — cannot trigger.
func stripVolatile(raw []byte) ([]byte, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("malformed document: %w", err)
	}
	return e2etest.StripVolatile(new(testing.T), raw), nil
}

// accuracyScores are the accuracy metrics over the evaluation set.
type accuracyScores struct {
	maskIoU, jointErrDeg, pck, ruleAgreement float64
	verdicts                                 int
}

// pckTolerance is the PCK threshold as a fraction of the trunk length.
const pckTolerance = 0.2

// accuracy scores the evaluation-set outcomes against the synthetic ground
// truth and returns the scores and the number of outputs that failed the
// full-pipeline check:
//
//   - mask_iou: mean silhouette IoU against the rendered body masks;
//   - joint_err_deg: mean joint-angle error (metrics.CompareSequences);
//   - pck: mean PCK@0.2 of the trunk length (metrics.PCK);
//   - rule_agreement: the share of Table 2 verdicts on the estimated poses
//     that equal the verdicts on the true poses.
func (b *bench) accuracy(outs []outcome) (accuracyScores, int) {
	var acc accuracyScores
	var ious, angles, pcks []float64
	agree, bad := 0, 0
	for i, o := range outs {
		if o.err != nil {
			continue
		}
		err := scoreClip(b.eval[i].clip.spec, o.result, &ious, &angles, &pcks, &agree, &acc.verdicts)
		if err != nil {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: evaluation clip %s: %v\n", b.eval[i].clip.spec.ID, err)
		}
	}
	acc.maskIoU, acc.jointErrDeg, acc.pck = mean(ious), mean(angles), mean(pcks)
	if acc.verdicts > 0 {
		acc.ruleAgreement = float64(agree) / float64(acc.verdicts)
	}
	return acc, bad
}

func scoreClip(s clipSpec, raw []byte, ious, angles, pcks *[]float64, agree, verdicts *int) error {
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return err
	}
	if err := checkFull(doc, s.Params.Frames); err != nil {
		return err
	}
	if len(doc.Silhouettes) != s.Params.Frames {
		return fmt.Errorf("%d silhouettes for %d frames", len(doc.Silhouettes), s.Params.Frames)
	}
	_, v, err := s.generate()
	if err != nil {
		return err
	}
	for k, so := range doc.Silhouettes {
		packed, err := base64.StdEncoding.DecodeString(so.Mask)
		if err != nil {
			return err
		}
		m, err := jobs.UnpackMask(so.W, so.H, packed)
		if err != nil {
			return err
		}
		sc, err := metrics.CompareMasks(m, v.BodyMasks[k])
		if err != nil {
			return err
		}
		*ious = append(*ious, sc.IoU)
	}
	est := make([]stickmodel.Pose, len(doc.Poses))
	for k, p := range doc.Poses {
		est[k] = stickmodel.Pose{X: p.X, Y: p.Y, Rho: p.Rho}
	}
	seq, err := metrics.CompareSequences(est, v.Truth, v.Dims)
	if err != nil {
		return err
	}
	*angles = append(*angles, seq.MeanAngle)
	for k := range est {
		*pcks = append(*pcks, metrics.PCK(est[k], v.Truth[k], v.Dims, pckTolerance))
	}
	initW, airW := track.FixedWindows(len(v.Truth))
	truth, err := scoring.NewScorer().Score(v.Truth, initW, airW)
	if err != nil {
		return err
	}
	want := make(map[string]bool, len(truth.Results))
	for _, r := range truth.Results {
		want[r.Rule.ID] = r.Passed
	}
	for _, r := range doc.Rules {
		*verdicts++
		if passed, ok := want[r.ID]; ok && passed == r.Passed {
			*agree++
		}
	}
	return nil
}
