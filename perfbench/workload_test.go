package main

import (
	"bytes"
	"testing"
	"time"
)

// bodies encodes the first n unique clips of every client's sequence.
func bodies(t *testing.T, w workload, seed int64, n int) [][]byte {
	t.Helper()
	seqs := sequences(w, seed, w.maxOps(20*time.Second))
	var out [][]byte
	for _, s := range seqs {
		for _, spec := range s.Clips[:n] {
			c, _, err := spec.generate()
			if err != nil {
				t.Fatal(err)
			}
			body, _, err := c.multipartBody(w.stages)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, body)
		}
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	w := workloads["seg_journal"]
	a, b := bodies(t, w, 7, 2), bodies(t, w, 7, 2)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("seed 7 body %d differs between two generations", i)
		}
	}
	c := bodies(t, w, 8, 2)
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			t.Fatalf("seeds 7 and 8 produced the same body %d", i)
		}
	}
	if bytes.Equal(a[0], a[2]) {
		t.Fatal("both clients drew the same first clip")
	}
}

func TestSequencesRepeatRecentOwnClips(t *testing.T) {
	for name, w := range workloads {
		seqs := sequences(w, 3, 200)
		for c, s := range seqs {
			unique, repeats := 0, 0
			for _, op := range s.Ops {
				if op.Client != c {
					t.Fatalf("%s: op %d of client %d names client %d", name, op.N, c, op.Client)
				}
				if !op.Repeat {
					if op.Clip != unique {
						t.Fatalf("%s: fresh op %d uses clip %d, want %d", name, op.N, op.Clip, unique)
					}
					unique++
					continue
				}
				repeats++
				if op.Clip >= unique || op.Clip < unique-repeatWindow {
					t.Fatalf("%s: repeat op %d reaches clip %d with %d seen", name, op.N, op.Clip, unique)
				}
			}
			if w.repeatEvery == 0 && repeats != 0 || w.repeatEvery > 0 && repeats != 200/w.repeatEvery {
				t.Fatalf("%s: %d repeats in 200 operations", name, repeats)
			}
		}
	}
}
