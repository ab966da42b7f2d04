package artifacts

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// originServing starts an origin that answers every artifact GET with
// body, whatever hash it names, and counts the requests.
func originServing(t *testing.T, body []byte) (*httptest.Server, *int32) {
	t.Helper()
	var requests int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&requests, 1)
		_, _ = w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv, &requests
}

func TestHTTPResolverStoresPulledBlobUnderItsHash(t *testing.T) {
	blob, err := EncodeFrames(testFrames(3, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	hash := HashOf(blob)
	origin, requests := originServing(t, blob)
	local, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	r := &HTTPResolver{Local: local, Origin: origin.URL}

	got, err := r.Artifact(hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("pulled blob differs from the origin's")
	}
	stored, kind, ok := local.Get(hash)
	if !ok || kind != KindFrames || !bytes.Equal(stored, blob) {
		t.Fatalf("local store after the pull: Get(%s) = %d bytes, %q, %v", hash, len(stored), kind, ok)
	}
	if HashOf(stored) != hash {
		t.Fatal("the stored blob does not hash to the key it is served under")
	}
	// The second resolution is local: no further origin round trip.
	if _, err := r.Artifact(hash); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(requests); n != 1 {
		t.Fatalf("origin saw %d requests, want 1", n)
	}
	if m := local.Metrics(); m.Pulls != 1 || m.PullFailures != 0 || m.Stored != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestHTTPResolverRejectsCorruptPull(t *testing.T) {
	blob, err := EncodeFrames(testFrames(2, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	hash := HashOf(blob)
	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)-1] ^= 1
	origin, _ := originServing(t, corrupt)
	local, err := NewStore(Config{MaxBlobs: 8, MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	_, err = (&HTTPResolver{Local: local, Origin: origin.URL}).Artifact(hash)
	if err == nil || !strings.Contains(err.Error(), "does not hash") {
		t.Fatalf("corrupt pull: err = %v, want a hash mismatch", err)
	}
	if _, _, ok := local.Get(hash); ok {
		t.Fatal("a corrupt pull was stored under the requested hash")
	}
	if _, _, ok := local.Get(HashOf(corrupt)); ok {
		t.Fatal("a corrupt pull was stored under its own hash")
	}
	if m := local.Metrics(); m.Stored != 0 {
		t.Fatalf("stored = %d after a corrupt pull, want 0", m.Stored)
	}
}

func TestHTTPResolverRefusesOversizedPull(t *testing.T) {
	blob, err := EncodeFrames(testFrames(4, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	origin, _ := originServing(t, blob)
	local, err := NewStore(Config{MaxBlobs: 8, MaxBytes: int64(len(blob) - 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	_, err = (&HTTPResolver{Local: local, Origin: origin.URL}).Artifact(HashOf(blob))
	if err == nil || !strings.Contains(err.Error(), "pull limit") {
		t.Fatalf("oversized pull: err = %v, want the pull limit", err)
	}
}
