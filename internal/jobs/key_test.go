package jobs

import "testing"

func TestKeyerComponentsAreUnambiguous(t *testing.T) {
	sum := func(build func(*Keyer)) Key {
		k := NewKeyer()
		build(k)
		return k.Sum()
	}
	a := sum(func(k *Keyer) { k.WriteString("ab"); k.WriteString("c") })
	b := sum(func(k *Keyer) { k.WriteString("a"); k.WriteString("bc") })
	if a == b {
		t.Error("length prefixing must separate string boundaries")
	}
	if sum(func(k *Keyer) { k.WriteFloat(1) }) == sum(func(k *Keyer) { k.WriteFloat(2) }) {
		t.Error("distinct floats must hash differently")
	}
	if sum(func(k *Keyer) { k.WriteBool(true) }) == sum(func(k *Keyer) { k.WriteBool(false) }) {
		t.Error("distinct bools must hash differently")
	}
	// Determinism: the same component sequence yields the same key.
	c1 := sum(func(k *Keyer) { k.WriteString("x"); k.WriteInt(7); k.WriteFloat(3.5) })
	c2 := sum(func(k *Keyer) { k.WriteString("x"); k.WriteInt(7); k.WriteFloat(3.5) })
	if c1 != c2 {
		t.Error("identical component sequences must collide")
	}
	if c1.String() == "" || len(c1.String()) != 64 {
		t.Errorf("hex key = %q", c1.String())
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	k := NewKeyer()
	k.WriteString("clip")
	key := k.Sum()
	back, ok := ParseKey(key.String())
	if !ok || back != key {
		t.Fatalf("ParseKey(%s) = %s, %v", key, back, ok)
	}
	for _, bad := range []string{"", "zz", key.String()[:62], key.String() + "00"} {
		if _, ok := ParseKey(bad); ok {
			t.Errorf("ParseKey(%q) accepted a malformed key", bad)
		}
	}
}
