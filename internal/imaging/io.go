package imaging

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
)

// EncodePPM writes img as a binary PPM (P6) stream.
func EncodePPM(w io.Writer, img *Image) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", img.W, img.H); err != nil {
		return fmt.Errorf("ppm header: %w", err)
	}
	buf := make([]byte, 0, img.W*3)
	for y := 0; y < img.H; y++ {
		buf = buf[:0]
		for x := 0; x < img.W; x++ {
			p := img.Pix[y*img.W+x]
			buf = append(buf, p.R, p.G, p.B)
		}
		if _, err := bw.Write(buf); err != nil {
			return fmt.Errorf("ppm row %d: %w", y, err)
		}
	}
	return bw.Flush()
}

// DecodePPM reads a binary PPM (P6) stream.
func DecodePPM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	magic, err := readPNMToken(br)
	if err != nil {
		return nil, fmt.Errorf("ppm magic: %w", err)
	}
	if magic != "P6" {
		return nil, fmt.Errorf("ppm: unsupported magic %q", magic)
	}
	w, h, maxV, err := readPNMDims(br)
	if err != nil {
		return nil, err
	}
	if maxV != 255 {
		return nil, fmt.Errorf("ppm: unsupported maxval %d", maxV)
	}
	img := NewImage(w, h)
	row := make([]byte, w*3)
	for y := 0; y < h; y++ {
		if _, err := io.ReadFull(br, row); err != nil {
			return nil, fmt.Errorf("ppm row %d: %w", y, err)
		}
		for x := 0; x < w; x++ {
			img.Pix[y*w+x] = Color{row[x*3], row[x*3+1], row[x*3+2]}
		}
	}
	return img, nil
}

// EncodePGM writes g as a binary PGM (P5) stream.
func EncodePGM(w io.Writer, g *Gray) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return fmt.Errorf("pgm header: %w", err)
	}
	if _, err := bw.Write(g.Pix); err != nil {
		return fmt.Errorf("pgm pixels: %w", err)
	}
	return bw.Flush()
}

// DecodePGM reads a binary PGM (P5) stream.
func DecodePGM(r io.Reader) (*Gray, error) {
	br := bufio.NewReader(r)
	magic, err := readPNMToken(br)
	if err != nil {
		return nil, fmt.Errorf("pgm magic: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("pgm: unsupported magic %q", magic)
	}
	w, h, maxV, err := readPNMDims(br)
	if err != nil {
		return nil, err
	}
	if maxV != 255 {
		return nil, fmt.Errorf("pgm: unsupported maxval %d", maxV)
	}
	g := NewGray(w, h)
	if _, err := io.ReadFull(br, g.Pix); err != nil {
		return nil, fmt.Errorf("pgm pixels: %w", err)
	}
	return g, nil
}

// EncodePBM writes m as a plain PBM (P1) stream. Plain format keeps the mask
// output diff-able in experiments.
func EncodePBM(w io.Writer, m *Mask) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P1\n%d %d\n", m.W, m.H); err != nil {
		return fmt.Errorf("pbm header: %w", err)
	}
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			b := byte('0')
			if m.Bits[y*m.W+x] {
				b = '1'
			}
			if err := bw.WriteByte(b); err != nil {
				return fmt.Errorf("pbm row %d: %w", y, err)
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("pbm row %d: %w", y, err)
		}
	}
	return bw.Flush()
}

// DecodePBM reads a plain PBM (P1) stream.
func DecodePBM(r io.Reader) (*Mask, error) {
	br := bufio.NewReader(r)
	magic, err := readPNMToken(br)
	if err != nil {
		return nil, fmt.Errorf("pbm magic: %w", err)
	}
	if magic != "P1" {
		return nil, fmt.Errorf("pbm: unsupported magic %q", magic)
	}
	wTok, err := readPNMToken(br)
	if err != nil {
		return nil, fmt.Errorf("pbm width: %w", err)
	}
	hTok, err := readPNMToken(br)
	if err != nil {
		return nil, fmt.Errorf("pbm height: %w", err)
	}
	w, err := strconv.Atoi(wTok)
	if err != nil {
		return nil, fmt.Errorf("pbm width %q: %w", wTok, err)
	}
	h, err := strconv.Atoi(hTok)
	if err != nil {
		return nil, fmt.Errorf("pbm height %q: %w", hTok, err)
	}
	if !reasonableSize(w, h) {
		return nil, fmt.Errorf("pbm: unreasonable size %dx%d", w, h)
	}
	m := NewMask(w, h)
	for i := 0; i < w*h; {
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("pbm pixel %d: %w", i, err)
		}
		switch b {
		case '0':
			i++
		case '1':
			m.Bits[i] = true
			i++
		case ' ', '\t', '\n', '\r':
		default:
			return nil, fmt.Errorf("pbm: unexpected byte %q", b)
		}
	}
	return m, nil
}

// WritePPMFile writes img to a PPM file at path.
func WritePPMFile(path string, img *Image) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	return EncodePPM(f, img)
}

// ReadPPMFile reads a PPM image from path.
func ReadPPMFile(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	img, err := DecodePPM(f)
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return img, nil
}

// WritePGMFile writes g to a PGM file at path.
func WritePGMFile(path string, g *Gray) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	return EncodePGM(f, g)
}

// readPNMToken skips whitespace and # comments, returning the next token.
func readPNMToken(br *bufio.Reader) (string, error) {
	tok := make([]byte, 0, 8)
	inComment := false
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case inComment:
			if b == '\n' {
				inComment = false
			}
		case b == '#':
			if len(tok) > 0 {
				return string(tok), br.UnreadByte()
			}
			inComment = true
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

func readPNMDims(br *bufio.Reader) (w, h, maxV int, err error) {
	toks := [3]int{}
	for i := range toks {
		t, err := readPNMToken(br)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("pnm dims: %w", err)
		}
		v, err := strconv.Atoi(t)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("pnm dims %q: %w", t, err)
		}
		toks[i] = v
	}
	if !reasonableSize(toks[0], toks[1]) {
		return 0, 0, 0, fmt.Errorf("pnm: unreasonable size %dx%d", toks[0], toks[1])
	}
	return toks[0], toks[1], toks[2], nil
}

// reasonableSize bounds each side by MaxDim before taking the product, so
// a header like "4 4611686018427387904" cannot wrap w*h around to a small
// number and pass.
func reasonableSize(w, h int) bool {
	return w > 0 && h > 0 && w <= MaxDim && h <= MaxDim && w*h <= 1<<28
}
