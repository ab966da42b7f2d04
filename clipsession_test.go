package sljmotion_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"github.com/sljmotion/sljmotion"
	"github.com/sljmotion/sljmotion/internal/server"
)

// TestPublicClipSession drives the streaming-upload facade end to end: open
// a session against a running server, append the clip in chunks, seal it
// into content-addressed artifacts, and analyse it by hash.
func TestPublicClipSession(t *testing.T) {
	video, err := sljmotion.GenerateSyntheticJump(sljmotion.DefaultJumpParams())
	if err != nil {
		t.Fatal(err)
	}
	manual := video.ManualAnnotation(sljmotion.DefaultAnnotationError(), 1)

	cfg := sljmotion.DefaultConfig()
	cfg.Pose.Population = 40
	cfg.Pose.Generations = 40
	cfg.Pose.Patience = 10
	cfg.Pose.RefineRounds = 1
	s, err := server.NewWithOptions(cfg, nil, server.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		_ = s.Close(context.Background())
	}()

	cs, err := sljmotion.OpenClipSession(hs.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ID() == "" {
		t.Fatal("empty clip id")
	}
	for i := 0; i < len(video.Frames); i += 4 {
		end := i + 4
		if end > len(video.Frames) {
			end = len(video.Frames)
		}
		if err := cs.AppendFrames(video.Frames[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	seal, err := cs.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if seal.Frames != len(video.Frames) || seal.FramesHash == "" {
		t.Fatalf("seal = %+v", seal)
	}
	// Sealing again through the facade is idempotent.
	again, err := cs.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if *again != *seal {
		t.Fatalf("reseal = %+v, want %+v", again, seal)
	}

	raw, err := cs.Analyze(seal, manual, sljmotion.ClipAnalyzeOptions{
		Stages:             "segmentation",
		IncludeSilhouettes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Frames      int      `json:"frames"`
		Stages      []string `json:"stages"`
		Silhouettes []any    `json:"silhouettes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("analysis document: %v\n%s", err, raw)
	}
	if doc.Frames != len(video.Frames) || len(doc.Silhouettes) != len(video.Frames) {
		t.Fatalf("analysis document: frames %d, silhouettes %d, want %d each",
			doc.Frames, len(doc.Silhouettes), len(video.Frames))
	}

	// An unsealed hash-less analysis and a bad session id surface the
	// service's coded error envelope through the facade.
	if _, err := sljmotion.OpenClipSession(hs.URL+"/nope", nil); err == nil {
		t.Error("OpenClipSession against a bad path succeeded")
	}
}
