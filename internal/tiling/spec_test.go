package tiling

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
		fp   string
	}{
		{"", Spec{Name: NamePluto}, "pluto"},
		{"pluto", Spec{Name: NamePluto}, "pluto"},
		{" pluto ", Spec{Name: NamePluto}, "pluto"},
		{"pluto:size=64", Spec{Name: NamePluto, Size: 64}, "pluto:size=64"},
		{"cacheoblivious", Spec{Name: NameCacheOblivious}, "cacheoblivious"},
		{"cacheoblivious:base=16", Spec{Name: NameCacheOblivious, Base: 16}, "cacheoblivious:base=16"},
		// The default base canonicalizes to the bare name.
		{"cacheoblivious:base=8", Spec{Name: NameCacheOblivious, Base: 8}, "cacheoblivious"},
		{"latency", Spec{Name: NameLatency}, "latency"},
		{"latency:probe=3", Spec{Name: NameLatency, Probe: 3}, "latency:probe=3"},
		{"latency:probe=4", Spec{Name: NameLatency, Probe: 4}, "latency"},
		{"auto", Spec{Name: NameAuto}, "auto"},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		if fp := got.Fingerprint(); fp != tc.fp {
			t.Errorf("ParseSpec(%q).Fingerprint() = %q, want %q", tc.in, fp, tc.fp)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"hilbert",
		"pluto:",
		"pluto:size",
		"pluto:size=",
		"pluto:size=1",
		"pluto:size=abc",
		"pluto:probe=3",
		"cacheoblivious:base=0",
		"latency:probe=0",
		"latency:probe=99",
		"auto:size=8",
		"latency:probe=3,,",
		"pluto:=32",
	} {
		if _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", in)
		}
	}
}

// The zero value must be indistinguishable from an explicit pluto spec:
// they share a fingerprint (and hence memo entries), which is what makes
// the zero-value Config byte-identical to -tiling pluto.
func TestZeroValueIsPluto(t *testing.T) {
	var zero Spec
	if zero.Fingerprint() != "pluto" {
		t.Fatalf("zero Spec fingerprint %q, want pluto", zero.Fingerprint())
	}
	p, _ := ParseSpec("pluto")
	if zero.Fingerprint() != p.Fingerprint() {
		t.Fatalf("zero and explicit pluto fingerprints differ: %q vs %q",
			zero.Fingerprint(), p.Fingerprint())
	}
	if err := zero.Normalize().Validate(); err != nil {
		t.Fatal(err)
	}
	if name := zero.Normalize().Name; name != NamePluto {
		t.Fatalf("zero spec resolves to %q, want pluto", name)
	}
}

// Fingerprints of distinct strategies (and distinct options of one
// strategy) must never collide — they partition every memo layer.
func TestFingerprintsDistinct(t *testing.T) {
	specs := []string{
		"pluto", "pluto:size=64", "pluto:size=16",
		"cacheoblivious", "cacheoblivious:base=16",
		"latency", "latency:probe=2", "auto",
	}
	seen := map[string]string{}
	for _, in := range specs {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		fp := s.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("specs %q and %q share fingerprint %q", prev, in, fp)
		}
		seen[fp] = in
	}
}

func FuzzParseTilingSpec(f *testing.F) {
	for _, seed := range []string{
		"", "pluto", "pluto:size=64", "cacheoblivious", "cacheoblivious:base=16",
		"latency", "latency:probe=3", "auto", "auto:x=1", "pluto:size=",
		"latency:probe=0", "bogus", "pluto:size=32,size=64", " latency : probe=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSpec(in)
		if err != nil {
			return
		}
		// Accepted specs must name a strategy whose canonical form
		// re-parses to the identical spec (fingerprint is a fixed point).
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSpec(%q) accepted but Validate failed: %v", in, err)
		}
		fp := s.Fingerprint()
		if !strings.HasPrefix(fp, s.Normalize().Name) {
			t.Fatalf("fingerprint %q does not start with strategy name %q", fp, s.Name)
		}
		rt, err := ParseSpec(fp)
		if err != nil {
			t.Fatalf("fingerprint %q of accepted spec %q does not re-parse: %v", fp, in, err)
		}
		if rt.Fingerprint() != fp {
			t.Fatalf("fingerprint not a fixed point: %q -> %q", fp, rt.Fingerprint())
		}
	})
}
