package jobs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestDocumentForms: a Document built from either form derives the other
// exactly as the JSON encoders write it.
func TestDocumentForms(t *testing.T) {
	v := map[string]any{"score": "7/7", "rules": []any{map[string]any{"id": "<R1>", "ok": true}}, "empty": []int{}}
	var served bytes.Buffer
	enc := json.NewEncoder(&served)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Document{"served": NewDocument(served.Bytes()), "compact": CompactDocument(compact)} {
		if !bytes.Equal(d.Served(), served.Bytes()) {
			t.Errorf("%s: Served = %q, want %q", name, d.Served(), served.Bytes())
		}
		if !bytes.Equal(d.Compact(), compact) {
			t.Errorf("%s: Compact = %q, want %q", name, d.Compact(), compact)
		}
		if got := CompactJSON(d); !bytes.Equal(got, compact) {
			t.Errorf("%s: CompactJSON = %q", name, got)
		}
	}
	// Routes reach one document from several goroutines at once.
	d := CompactDocument(compact)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 && !bytes.Equal(d.Served(), served.Bytes()) || i%2 == 1 && !bytes.Equal(d.Compact(), compact) {
				t.Error("a concurrent reader saw a different document")
			}
		}(i)
	}
	wg.Wait()
	bad := NewDocument([]byte("{not json"))
	if bad.Compact() != nil || CompactJSON(bad) != nil {
		t.Error("an invalid document has a compact form")
	}
	if got := CompactDocument([]byte("[1,")).Served(); got != nil {
		t.Errorf("an invalid compact document serves %q", got)
	}
}
