// Package clipio reads and writes jump clips on disk: frame_NN.ppm image
// sequences plus the truth.txt pose file that carries ground-truth or
// manually annotated stick models. It is the storage format shared by the
// slj-synth, slj-analyze and slj-serve tools.
package clipio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

// ErrNoFrames is returned when a directory holds no frame files.
var ErrNoFrames = errors.New("clipio: no frame_NN.ppm files")

// FramePattern matches the file names written for clip frames.
const (
	framePrefix = "frame_"
	frameSuffix = ".ppm"
)

// FrameName returns the canonical file name of frame k.
func FrameName(k int) string { return fmt.Sprintf("%s%02d%s", framePrefix, k, frameSuffix) }

// WriteFrames writes the frames of a clip into dir as frame_NN.ppm.
func WriteFrames(dir string, frames []*imaging.Image) error {
	for k, f := range frames {
		if err := imaging.WritePPMFile(filepath.Join(dir, FrameName(k)), f); err != nil {
			return fmt.Errorf("frame %d: %w", k, err)
		}
	}
	return nil
}

// ReadFrames loads every frame_NN.ppm in dir in index order.
func ReadFrames(dir string) ([]*imaging.Image, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), framePrefix) && strings.HasSuffix(e.Name(), frameSuffix) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%w in %s", ErrNoFrames, dir)
	}
	sort.Strings(names)
	frames := make([]*imaging.Image, 0, len(names))
	for _, n := range names {
		img, err := imaging.ReadPPMFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		frames = append(frames, img)
	}
	return frames, nil
}

// WritePoses writes a pose sequence in the truth.txt format: one line per
// frame with the frame index, the trunk centre, and the eight absolute
// angles.
func WritePoses(w io.Writer, poses []stickmodel.Pose) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# frame x0 y0 rho0 rho1 rho2 rho3 rho4 rho5 rho6 rho7"); err != nil {
		return err
	}
	for k, p := range poses {
		if _, err := fmt.Fprintf(bw, "%d %.2f %.2f", k, p.X, p.Y); err != nil {
			return err
		}
		for l := 0; l < stickmodel.NumSticks; l++ {
			if _, err := fmt.Fprintf(bw, " %.2f", p.Rho[l]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WritePosesFile writes poses to a truth.txt file at path.
func WritePosesFile(path string, poses []stickmodel.Pose) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return WritePoses(f, poses)
}

// ReadPoses parses a truth.txt stream. Lines are "k x0 y0 ρ0..ρ7";
// comments (#) and blank lines are ignored. Frames may appear in any order;
// the result is indexed by frame number.
func ReadPoses(r io.Reader) ([]stickmodel.Pose, error) {
	sc := bufio.NewScanner(r)
	byFrame := map[int]stickmodel.Pose{}
	maxFrame := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 11 {
			return nil, fmt.Errorf("clipio: pose line needs 11 fields, got %d: %q", len(fields), line)
		}
		k, err := strconv.Atoi(fields[0])
		if err != nil || k < 0 {
			return nil, fmt.Errorf("clipio: bad frame index %q", fields[0])
		}
		var vals [10]float64
		for i := 0; i < 10; i++ {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("clipio: frame %d field %d: %w", k, i+1, err)
			}
			vals[i] = v
		}
		var p stickmodel.Pose
		p.X, p.Y = vals[0], vals[1]
		for l := 0; l < stickmodel.NumSticks; l++ {
			p.Rho[l] = vals[2+l]
		}
		byFrame[k] = p
		if k > maxFrame {
			maxFrame = k
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxFrame < 0 {
		return nil, errors.New("clipio: no pose lines")
	}
	// Grow by what the lines hold, never by the largest index: one line
	// naming frame 1<<62 is a missing frame, not a slice that size.
	poses := make([]stickmodel.Pose, 0, len(byFrame))
	for k := 0; k <= maxFrame; k++ {
		p, ok := byFrame[k]
		if !ok {
			return nil, fmt.Errorf("clipio: missing pose for frame %d", k)
		}
		poses = append(poses, p)
	}
	return poses, nil
}

// ReadPosesFile reads a truth.txt file.
func ReadPosesFile(path string) ([]stickmodel.Pose, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	poses, err := ReadPoses(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return poses, nil
}

// ReadManualPose reads the first pose of a truth.txt file — the manual
// first-frame annotation the analyzer needs.
func ReadManualPose(path string) (stickmodel.Pose, error) {
	poses, err := ReadPosesFile(path)
	if err != nil {
		return stickmodel.Pose{}, err
	}
	return poses[0], nil
}
