package main

import (
	"syscall"
	"unsafe"

	"github.com/sljmotion/sljmotion/internal/imaging"
)

// bodyPool keeps the pre-encoded request bodies and the frames of a run
// outside the Go heap, in read-only anonymous mappings. Hundreds of
// megabytes of inputs on the heap would double the collector's heap target
// for the whole process, the services under test included, and with it the
// run's memory; a file-backed pool would instead be written back to disk
// during the window, competing with the journal's fsyncs.
type bodyPool struct {
	maps [][]byte
}

// add copies b out of the heap and returns the read-only copy.
func (p *bodyPool) add(b []byte) ([]byte, error) {
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p.maps = append(p.maps, m)
	copy(m, b)
	return m, syscall.Mprotect(m, syscall.PROT_READ)
}

// imaging.Color is three uint8 fields, so a frame's pixels and their bytes
// are the same memory.
var _ [3]struct{} = [unsafe.Sizeof(imaging.Color{})]struct{}{}

// addImage returns a read-only copy of the frame outside the heap.
func (p *bodyPool) addImage(img *imaging.Image) (*imaging.Image, error) {
	b, err := p.add(unsafe.Slice((*byte)(unsafe.Pointer(&img.Pix[0])), 3*len(img.Pix)))
	if err != nil {
		return nil, err
	}
	return &imaging.Image{W: img.W, H: img.H, Pix: unsafe.Slice((*imaging.Color)(unsafe.Pointer(&b[0])), len(img.Pix))}, nil
}

// close unmaps everything the pool holds.
func (p *bodyPool) close() error {
	for _, m := range p.maps {
		if err := syscall.Munmap(m); err != nil {
			return err
		}
	}
	p.maps = nil
	return nil
}
