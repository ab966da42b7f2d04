package obs

import "testing"

// FuzzParseTraceparent feeds arbitrary header values to the traceparent
// parser. It must never panic, and whatever it accepts must be a valid
// span context that survives its own encoding unchanged.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-")
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as invalid context %+v", s, sc)
		}
		again, ok := ParseTraceparent(sc.Traceparent())
		if !ok || again != sc {
			t.Fatalf("%q parsed to %+v, whose header %q parses to %+v (ok=%v)", s, sc, sc.Traceparent(), again, ok)
		}
	})
}
