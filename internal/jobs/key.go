package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Key is the content address of an analysis request: the SHA-256 of
// everything its result depends on, as RequestKey and RefKey define it.
// The artifact store indexes finished results by it
// (artifacts.Store.Result) and the dispatch ring places payloads by it.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey reverses Key.String. ok is false for anything that is not
// exactly one hex-encoded SHA-256 (including the empty string), so callers
// can treat an absent or corrupt key as "no key" without error plumbing.
func ParseKey(s string) (Key, bool) {
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != sha256.Size {
		return Key{}, false
	}
	var k Key
	copy(k[:], raw)
	return k, true
}

// Keyer incrementally hashes the components of a request identity into a
// Key. The Write methods are length-prefixed where ambiguity is possible so
// distinct component sequences can never collide by concatenation.
type Keyer struct {
	h hash.Hash
}

// NewKeyer returns an empty Keyer.
func NewKeyer() *Keyer { return &Keyer{h: sha256.New()} }

// WriteString hashes a length-prefixed string component.
func (k *Keyer) WriteString(s string) {
	k.writeLen(len(s))
	k.h.Write([]byte(s))
}

// WriteBytes hashes a length-prefixed byte component.
func (k *Keyer) WriteBytes(b []byte) {
	k.writeLen(len(b))
	k.h.Write(b)
}

// WriteInt hashes an integer component.
func (k *Keyer) WriteInt(v int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
	k.h.Write(buf[:])
}

// WriteFloat hashes a float64 component by its IEEE-754 bits, so the key is
// exact — no formatting round-trip.
func (k *Keyer) WriteFloat(v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	k.h.Write(buf[:])
}

// WriteBool hashes a boolean component.
func (k *Keyer) WriteBool(v bool) {
	if v {
		k.h.Write([]byte{1})
	} else {
		k.h.Write([]byte{0})
	}
}

// Sum returns the accumulated key.
func (k *Keyer) Sum() Key {
	var key Key
	copy(key[:], k.h.Sum(nil))
	return key
}

func (k *Keyer) writeLen(n int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	k.h.Write(buf[:])
}
