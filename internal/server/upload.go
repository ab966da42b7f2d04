package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/url"
	"sort"

	"github.com/sljmotion/sljmotion/internal/clipio"
	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// maxUploadParts bounds the parts of one multipart upload: the limit
// mime/multipart's ReadForm applies by default, kept so the streaming
// reader refuses what ParseMultipartForm refused.
const maxUploadParts = 1000

// upload is one multipart clip upload, read part by part off the body —
// the one parser behind the clip routes (/v1/analyze, /v1/jobs and the
// chunk append). Nothing is buffered whole: each "frames" file part is
// decoded into an image as it streams in, value parts are kept as they
// arrive, and other file parts are skipped unread.
type upload struct {
	frames []namedFrame // in arrival order until readUpload sorts them
	// truth holds the first "truth" file part; hasTruth says one came.
	truth    []byte
	hasTruth bool
	// values holds the query string's values, then the body's value
	// parts: Get answers as r.FormValue did for a multipart request.
	values url.Values
}

// namedFrame is a decoded frame with the file name that orders it.
type namedFrame struct {
	name string
	img  *imaging.Image
}

// readUpload reads the multipart upload of r under the MaxUploadBytes cap
// and sorts its frames by file name. Every error it returns is the
// client's fault (a 400); the parse and size errors keep the
// "parse upload: ..." text ParseMultipartForm produced.
func readUpload(w http.ResponseWriter, r *http.Request) (*upload, error) {
	r.Body = http.MaxBytesReader(w, r.Body, MaxUploadBytes)
	u, err := readParts(r)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		// The cap can trip inside a frame's pixels as well as between
		// parts; either way the upload, not the frame, is at fault.
		return nil, fmt.Errorf("parse upload: %w", tooLarge)
	}
	if err != nil {
		return nil, err
	}
	sort.SliceStable(u.frames, func(i, j int) bool { return u.frames[i].name < u.frames[j].name })
	return u, nil
}

func readParts(r *http.Request) (*upload, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, fmt.Errorf("parse upload: %w", err)
	}
	u := &upload{values: r.URL.Query()}
	for parts := 0; ; parts++ {
		p, err := mr.NextPart()
		if err == io.EOF {
			return u, nil
		}
		if err != nil {
			return nil, fmt.Errorf("parse upload: %w", err)
		}
		if parts == maxUploadParts {
			return nil, fmt.Errorf("parse upload: %w", multipart.ErrMessageTooLarge)
		}
		name, file := p.FormName(), p.FileName()
		switch {
		case name == "":
		case file == "":
			v, err := io.ReadAll(p)
			if err != nil {
				return nil, fmt.Errorf("parse upload: %w", err)
			}
			u.values.Add(name, string(v))
		case name == "frames":
			img, err := imaging.DecodePPM(p)
			if err != nil {
				return nil, fmt.Errorf("decode %s: %w", file, err)
			}
			u.frames = append(u.frames, namedFrame{file, img})
		case name == "truth" && !u.hasTruth:
			if u.truth, err = io.ReadAll(p); err != nil {
				return nil, fmt.Errorf("parse upload: %w", err)
			}
			u.hasTruth = true
		}
	}
}

// clip returns the uploaded frames in file-name order.
func (u *upload) clip() ([]*imaging.Image, error) {
	if len(u.frames) == 0 {
		return nil, errors.New("no 'frames' files in upload")
	}
	frames := make([]*imaging.Image, len(u.frames))
	for i, f := range u.frames {
		frames[i] = f.img
	}
	return frames, nil
}

// manual parses the truth file's first pose: the hand-drawn first-frame
// stick figure.
func (u *upload) manual() (stickmodel.Pose, error) {
	if !u.hasTruth {
		return stickmodel.Pose{}, errors.New("no 'truth' file in upload (manual first-frame stick figure required)")
	}
	poses, err := clipio.ReadPoses(bytes.NewReader(u.truth))
	if err != nil {
		return stickmodel.Pose{}, fmt.Errorf("truth file: %w", err)
	}
	return poses[0], nil
}
