package expt

import (
	"reflect"
	"strings"
	"testing"
)

// TestCanonicalCoversAllOptionFields pins the Options field count: anyone
// adding a field must extend Canonical (and this count), or two
// differently-configured runs would share a cache key. The worker budget
// is deliberately not an option: it never changes a result.
func TestCanonicalCoversAllOptionFields(t *testing.T) {
	const covered = 6 // short, telemetry, critpath, hybrid, ckptevery, timeline
	if n := reflect.TypeOf(Options{}).NumField(); n != covered {
		t.Fatalf("Options has %d fields but Canonical renders %d; update Options.Canonical and CacheKey docs, then this count", n, covered)
	}
	c := Options{Short: true, Telemetry: true, CritPath: true, Hybrid: "exact", CkptEvery: 3, Timeline: true}.Canonical()
	for _, want := range []string{"short=true", "telemetry=true", "critpath=true", "hybrid=exact", "ckptevery=3", "timeline=true"} {
		if !strings.Contains(c, want) {
			t.Errorf("Canonical() = %q missing %q", c, want)
		}
	}
}

// TestOptionsValidate pins the option domain: the CLI (exit 2) and the
// campaign server (HTTP 400) both rely on Validate rejecting values that
// would otherwise silently select a default.
func TestOptionsValidate(t *testing.T) {
	for _, o := range []Options{
		{},
		{Short: true, Telemetry: true, CritPath: true},
		{Hybrid: "off"},
		{Hybrid: "exact"},
		{Hybrid: "analytic"},
		{CkptEvery: 4},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	for _, o := range []Options{
		{Hybrid: "Exact"},
		{Hybrid: "on"},
		{Hybrid: "des"},
		{CkptEvery: -1},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}
}

// FuzzOptions drives Validate and Canonical with arbitrary hybrid tiers and
// checkpoint cadences. Validate must never panic, and two option sets that
// both validate must be equal whenever their canonical forms are: a
// collision would let a result cache serve one run's bytes for another's.
// flags carries each set's four booleans, the first set's in the low
// nibble.
func FuzzOptions(f *testing.F) {
	f.Add(uint8(0), "", 0, "", 0)
	f.Add(uint8(0xff), "exact", 3, "exact", 3)
	f.Add(uint8(0x1e), "analytic", 0, "off", -1)
	f.Add(uint8(0x11), "exact;ckptevery=1", 2, "exact", 1)
	f.Fuzz(func(t *testing.T, flags uint8, hybA string, ckptA int, hybB string, ckptB int) {
		opts := func(bits uint8, hybrid string, ckptEvery int) Options {
			return Options{
				Short: bits&1 != 0, Telemetry: bits&2 != 0, CritPath: bits&4 != 0, Timeline: bits&8 != 0,
				Hybrid: hybrid, CkptEvery: ckptEvery,
			}
		}
		a, b := opts(flags, hybA, ckptA), opts(flags>>4, hybB, ckptB)
		if a.Validate() == nil && b.Validate() == nil && a.Canonical() == b.Canonical() && a != b {
			t.Fatalf("valid options %+v and %+v share the canonical form %q", a, b, a.Canonical())
		}
	})
}

func TestCacheKeyStableAndSensitive(t *testing.T) {
	base := CacheKey("fig8", Options{Short: true}, "v1")
	if base != CacheKey("fig8", Options{Short: true}, "v1") {
		t.Fatal("CacheKey is not stable for identical inputs")
	}
	if len(base) != 64 {
		t.Fatalf("CacheKey length = %d, want 64 hex chars", len(base))
	}
	variants := map[string]string{
		"id":        CacheKey("fig9", Options{Short: true}, "v1"),
		"short":     CacheKey("fig8", Options{}, "v1"),
		"telemetry": CacheKey("fig8", Options{Short: true, Telemetry: true}, "v1"),
		"critpath":  CacheKey("fig8", Options{Short: true, CritPath: true}, "v1"),
		"hybrid":    CacheKey("fig8", Options{Short: true, Hybrid: "exact"}, "v1"),
		"ckptevery": CacheKey("fig8", Options{Short: true, CkptEvery: 3}, "v1"),
		"timeline":  CacheKey("fig8", Options{Short: true, Timeline: true}, "v1"),
		"version":   CacheKey("fig8", Options{Short: true}, "v2"),
	}
	seen := map[string]string{base: "base"}
	for name, key := range variants {
		if prev, dup := seen[key]; dup {
			t.Errorf("changing %s collides with %s: key %s", name, prev, key)
		}
		seen[key] = name
	}
}

func TestCodeVersionConstantWithinProcess(t *testing.T) {
	v := CodeVersion()
	if v == "" {
		t.Fatal("CodeVersion is empty")
	}
	if v != CodeVersion() {
		t.Fatal("CodeVersion changed between calls")
	}
}
