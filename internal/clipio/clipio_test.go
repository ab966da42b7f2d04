package clipio

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sljmotion/sljmotion/internal/imaging"
	"github.com/sljmotion/sljmotion/internal/stickmodel"
)

func samplePoses(n int) []stickmodel.Pose {
	poses := make([]stickmodel.Pose, n)
	for k := range poses {
		poses[k].X = float64(10 + k)
		poses[k].Y = float64(20 + k)
		for l := 0; l < stickmodel.NumSticks; l++ {
			poses[k].Rho[l] = float64((k*37 + l*11) % 360)
		}
	}
	return poses
}

func TestPosesRoundTrip(t *testing.T) {
	poses := samplePoses(5)
	var buf bytes.Buffer
	if err := WritePoses(&buf, poses); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoses(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(poses) {
		t.Fatalf("got %d poses, want %d", len(got), len(poses))
	}
	for k := range poses {
		if math.Abs(got[k].X-poses[k].X) > 0.01 || math.Abs(got[k].Y-poses[k].Y) > 0.01 {
			t.Errorf("frame %d centre mismatch", k)
		}
		for l := 0; l < stickmodel.NumSticks; l++ {
			if math.Abs(got[k].Rho[l]-poses[k].Rho[l]) > 0.01 {
				t.Errorf("frame %d stick %d angle mismatch", k, l)
			}
		}
	}
}

func TestPosesFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "truth.txt")
	poses := samplePoses(3)
	if err := WritePosesFile(path, poses); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPosesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d poses", len(got))
	}
	manual, err := ReadManualPose(path)
	if err != nil {
		t.Fatal(err)
	}
	if manual.X != poses[0].X {
		t.Error("manual pose is not frame 0")
	}
}

func TestReadPosesOutOfOrderAndComments(t *testing.T) {
	input := `# comment
1 11 21 0 1 2 3 4 5 6 7

0 10 20 0 1 2 3 4 5 6 7
`
	got, err := ReadPoses(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].X != 10 || got[1].X != 11 {
		t.Errorf("out-of-order parse wrong: %+v", got)
	}
}

func TestReadPosesErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"short line", "0 1 2 3\n"},
		{"bad index", "x 10 20 0 1 2 3 4 5 6 7\n"},
		{"negative index", "-1 10 20 0 1 2 3 4 5 6 7\n"},
		{"bad float", "0 10 twenty 0 1 2 3 4 5 6 7\n"},
		{"gap in frames", "0 10 20 0 1 2 3 4 5 6 7\n2 10 20 0 1 2 3 4 5 6 7\n"},
		{"index far past the lines", "0 10 20 0 1 2 3 4 5 6 7\n4611686018427387903 10 20 0 1 2 3 4 5 6 7\n"},
		{"largest index", "9223372036854775807 10 20 0 1 2 3 4 5 6 7\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadPoses(strings.NewReader(tc.in)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestFramesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	frames := []*imaging.Image{
		imaging.NewImageFilled(8, 6, imaging.Red),
		imaging.NewImageFilled(8, 6, imaging.Blue),
	}
	if err := WriteFrames(dir, frames); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d frames", len(got))
	}
	if got[0].At(0, 0) != imaging.Red || got[1].At(0, 0) != imaging.Blue {
		t.Error("frame order or content wrong")
	}
}

func TestReadFramesEmptyDir(t *testing.T) {
	if _, err := ReadFrames(t.TempDir()); err == nil {
		t.Error("expected ErrNoFrames")
	}
}

func TestFrameName(t *testing.T) {
	if FrameName(3) != "frame_03.ppm" || FrameName(12) != "frame_12.ppm" {
		t.Errorf("FrameName = %s/%s", FrameName(3), FrameName(12))
	}
}
