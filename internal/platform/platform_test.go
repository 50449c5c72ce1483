package platform

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// validBackend returns a well-formed description distinct from the
// embedded machines (tests mutate it freely).
func validBackend() *Backend {
	return &Backend{
		Name:     "UNIT-TEST",
		Aliases:  []string{"ut"},
		CPU:      "Unit Test CPU",
		Released: 2026,
		Sockets: []Socket{{
			Cores:      8,
			Threads:    16,
			CoreMinGHz: 1.0, CoreMaxGHz: 4.0, CoreBaseGHz: 3.0,
			UncoreMinGHz: 0.8, UncoreMaxGHz: 3.2,
			CapStepGHz:    0.1,
			CapLatencySec: 35e-6,
			HasUncoreRAPL: true,
			Cache: []CacheLevel{
				{Name: "L1", SizeBytes: 32768, LineSize: 64, Assoc: 8},
				{Name: "L2", SizeBytes: 262144, LineSize: 64, Assoc: 8},
				{Name: "LLC", SizeBytes: 8388608, LineSize: 64, Assoc: 16},
			},
			Truth: Truth{
				FlopsPerCycle: 16, HitLatencyNs: []float64{1.0, 3.0, 14.0},
				DRAMLatCoefNsGHz: 40, DRAMLatBaseNs: 50,
				BWPeakGBs: 60, BWKneeGHz: 0.9,
				MLP: 10, MLPSystem: 48, ILP: 4, Overlap: 0.2,
				PConstW: 25, CoreIdleWPerGHz: 2.0, CoreJPerFlop: 1.5e-10,
				UncoreIdleWPerGHz: 3.0, UncoreActWPerGHz: 7.0, UncoreActBaseW: 1.9,
			},
		}},
	}
}

func TestValidateFieldErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Backend)
		want   string
	}{
		{"empty name", func(b *Backend) { b.Name = "" }, "name"},
		{"zero cores", func(b *Backend) { b.Sockets[0].Cores = 0 }, "cores"},
		{"threads below cores", func(b *Backend) { b.Sockets[0].Threads = 4 }, "threads"},
		{"inverted core range", func(b *Backend) { b.Sockets[0].CoreMaxGHz = 0.5 }, "core_min_ghz/core_max_ghz"},
		{"base outside range", func(b *Backend) { b.Sockets[0].CoreBaseGHz = 9 }, "core_base_ghz"},
		{"inverted uncore range", func(b *Backend) { b.Sockets[0].UncoreMaxGHz = 0.1 }, "uncore_min_ghz/uncore_max_ghz"},
		{"zero cap step", func(b *Backend) { b.Sockets[0].CapStepGHz = 0 }, "cap_step_ghz"},
		{"negative cap latency", func(b *Backend) { b.Sockets[0].CapLatencySec = -1 }, "cap_latency_sec"},
		{"no cache", func(b *Backend) { b.Sockets[0].Cache = nil }, "cache"},
		{"ragged set count", func(b *Backend) { b.Sockets[0].Cache[1].SizeBytes = 262145 }, "whole number of sets"},
		{"shrinking hierarchy", func(b *Backend) { b.Sockets[0].Cache[2].SizeBytes = 1024 }, "smaller than inner level"},
		{"latency per level", func(b *Backend) { b.Sockets[0].Truth.HitLatencyNs = []float64{1} }, "hit_latency_ns"},
		{"mlp below one", func(b *Backend) { b.Sockets[0].Truth.MLP = 0.5 }, "mlp"},
		{"overlap above one", func(b *Backend) { b.Sockets[0].Truth.Overlap = 1.5 }, "overlap"},
	} {
		b := validBackend()
		tc.mutate(b)
		err := b.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted the bad description", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	if err := validBackend().Validate(); err != nil {
		t.Fatalf("valid description rejected: %v", err)
	}
}

func TestParseRejectsUnknownFieldsAndOldSchema(t *testing.T) {
	good, err := validBackend().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(good); err != nil {
		t.Fatalf("round-tripped description rejected: %v", err)
	}
	// A typo'd field must fail loudly, not decode to a silent zero.
	typo := bytes.Replace(good, []byte(`"cap_step_ghz"`), []byte(`"cap_step_gz"`), 1)
	if _, err := Parse(typo); err == nil || !strings.Contains(err.Error(), "cap_step_gz") {
		t.Fatalf("unknown field error = %v", err)
	}
	// Another schema version names itself in the error.
	old := bytes.Replace(good, []byte(`"schema": 2`), []byte(`"schema": 0`), 1)
	if _, err := Parse(old); err == nil || !strings.Contains(err.Error(), "version 0") {
		t.Fatalf("old schema error = %v", err)
	}
	if _, err := Parse([]byte("{nope")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	// A schema-1 document spells its one socket at the top level; it is
	// refused with the conversion hint, and so is a schema-2 document
	// that keeps a socket field there.
	v1, err := json.Marshal(struct {
		Schema int    `json:"schema"`
		Name   string `json:"name"`
		Socket
	}{1, "OLD", validBackend().Sockets[0]})
	if err != nil {
		t.Fatal(err)
	}
	const hint = `move the top-level socket fields into "sockets": [{…}]`
	if _, err := Parse(v1); err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), hint) {
		t.Fatalf("schema-1 error = %v, want the conversion hint", err)
	}
	flat := bytes.Replace(good, []byte(`"schema": 2,`), []byte(`"schema": 2, "cores": 8,`), 1)
	if _, err := Parse(flat); err == nil || !strings.Contains(err.Error(), `unknown field "cores"`) || !strings.Contains(err.Error(), `"sockets": [{…}]`) {
		t.Fatalf("top-level socket field error = %v", err)
	}
}

// TestBackendHashesPinned pins every field of every shipped description:
// Hash() equals the literal recorded when the codec became sockets-only
// (calibration artifacts, journal keys and CAS addresses in the wild are
// keyed by it), Marshal() is byte-identical to that commit's output
// (testdata/*.marshal.json), and Marshal is a fixed point of
// Parse∘Marshal.
func TestBackendHashesPinned(t *testing.T) {
	for _, tc := range []struct{ doc, name, hash string }{
		{"descriptions/bdw.json", "BDW", "201a451a26b36e98"},
		{"descriptions/rpl.json", "RPL", "f8b76626d134bf7a"},
		{"../../platforms/wide-uncore.json", "WIDE", "e581b7bd870c5485"},
		{"../../platforms/2-socket-bdw.json", "2S-BDW", "54fd54f4ba3bca44"},
		{"../../platforms/cluster-2s-bdw.json", "2S-BDW-X8", "5278ef6a08f40ecb"},
	} {
		read := os.ReadFile
		if strings.HasPrefix(tc.doc, "descriptions/") {
			read = embedded.ReadFile
		}
		data, err := read(tc.doc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.doc, err)
		}
		if b.Name != tc.name {
			t.Fatalf("%s: parsed as %q, want %q", tc.doc, b.Name, tc.name)
		}
		if got := b.Hash(); got != tc.hash {
			t.Fatalf("%s: Hash() = %s, want %s — every persisted artifact keyed by it is orphaned", tc.name, got, tc.hash)
		}
		out, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("testdata", strings.ToLower(tc.name)+".marshal.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, golden) {
			t.Fatalf("%s: Marshal() differs from the recorded bytes:\n%s", tc.name, out)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("%s: own Marshal output rejected: %v", tc.name, err)
		}
		if !reflect.DeepEqual(b, again) {
			t.Fatalf("%s: Parse(Marshal(b)) != b", tc.name)
		}
		if out2, err := again.Marshal(); err != nil || !bytes.Equal(out, out2) {
			t.Fatalf("%s: Marshal is not a fixed point of Parse∘Marshal (%v)", tc.name, err)
		}
	}
}

func TestBackendMarshalRoundTrip(t *testing.T) {
	// Every embedded description survives marshal -> parse bit-for-bit:
	// same struct, same content hash, same re-marshalled bytes.
	for _, b := range All() {
		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if !reflect.DeepEqual(b, got) {
			t.Fatalf("%s: round trip changed the description", b.Name)
		}
		if b.Hash() != got.Hash() {
			t.Fatalf("%s: hash changed across round trip", b.Name)
		}
		again, err := got.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: marshal not deterministic", b.Name)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"BDW", "bdw", "Broadwell", "RPL", "raptorlake"} {
		b, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if b == nil {
			t.Fatalf("Lookup(%q) returned nil backend", name)
		}
	}
	b, err := Lookup("m1-max")
	if b != nil || err == nil {
		t.Fatalf("unknown name resolved: %v, %v", b, err)
	}
	for _, want := range []string{"m1-max", "BDW", "RPL"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("lookup error %q does not mention %q", err, want)
		}
	}
	paper := Paper()
	if len(paper) != 2 || paper[0].Name != "BDW" || paper[1].Name != "RPL" {
		t.Fatalf("Paper() = %v", paper)
	}
}

func TestRegisterCollisionAndLastWins(t *testing.T) {
	// An alias colliding with a different backend's name is rejected.
	clash := validBackend()
	clash.Name = "CLASH-TEST"
	clash.Aliases = []string{"rpl"}
	if err := Register(clash); err == nil || !strings.Contains(err.Error(), "collides") {
		t.Fatalf("collision error = %v", err)
	}
	if _, err := Lookup("CLASH-TEST"); err == nil {
		t.Fatal("rejected backend was registered anyway")
	}
	// Re-registering the same canonical name replaces the entry (a file
	// under platforms/ overrides an embedded description).
	v1 := validBackend()
	if err := Register(v1); err != nil {
		t.Fatal(err)
	}
	before := len(All())
	v2 := validBackend()
	v2.CPU = "Unit Test CPU rev2"
	if err := Register(v2); err != nil {
		t.Fatal(err)
	}
	if got, _ := Lookup("unit-test"); got == nil || got.CPU != "Unit Test CPU rev2" {
		t.Fatalf("last-wins re-registration did not replace: %+v", got)
	}
	if len(All()) != before {
		t.Fatalf("re-registration grew the registry to %d entries", len(All()))
	}
}

// testCalibration builds an artifact with awkward float values (subnormal
// ranges, repeating binary fractions) so the round trip is a real test of
// bit-exactness.
func testCalibration() *Calibration {
	c := Constants{
		Platform: "UNIT-TEST", PeakGFlops: 614.4, PeakGBs: 55.3217,
		BtDRAM: 11.1061, TByteMax: 35e-6 / 1937.0, CalibThreads: 16,
		HitLatency: []float64{1.1e-9, 3.3e-9, 13e-9},
		MissLatA:   42.0001, MissLatB: 51.9999, MissLatR2: 1 - 1e-12,
		PowerR2: 0.999999999,
	}
	return &Calibration{
		Schema: CalibrationSchemaVersion, Backend: "UNIT-TEST",
		BackendHash: validBackend().Hash(), Constants: c,
		Provenance: Provenance{
			FitDate: "2026-08-05T00:00:00Z", Seed: 0,
			Residuals: map[string]float64{"miss_latency": 1.0 / 3.0, "uncore_power": 0.1},
			Tool:      "polyufc/roofline",
		},
	}
}

func TestCalibrationRoundTripBitForBit(t *testing.T) {
	cal := testCalibration()
	data, err := cal.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseCalibration(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cal, got) {
		t.Fatalf("round trip changed the artifact:\n%+v\nvs\n%+v", cal, got)
	}
	again, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("calibration marshal not bit-stable:\n%s\nvs\n%s", data, again)
	}
}

func TestCalibrationSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unit-test.calibration.json")
	cal := testCalibration()
	if err := cal.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCalibration(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cal, got) {
		t.Fatal("loaded artifact differs from saved")
	}
	if err := got.Matches(validBackend()); err != nil {
		t.Fatalf("Matches rejected its own backend: %v", err)
	}
	// A second save replaces the file whole and leaves nothing beside it.
	if err := got.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != filepath.Base(path) {
		t.Fatalf("directory after a second save holds %v, want only %s", entries, filepath.Base(path))
	}
	if again, err := LoadCalibration(path); err != nil || !reflect.DeepEqual(cal, again) {
		t.Fatalf("artifact after a second save: %+v, %v", again, err)
	}
	if _, err := LoadCalibration(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCalibrationRejectsCorruptAndStale(t *testing.T) {
	good, err := testCalibration().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Old schema version: the error names both versions and the remedy.
	old := bytes.Replace(good, []byte(`"schema": 1`), []byte(`"schema": 0`), 1)
	if _, err := ParseCalibration(old); err == nil ||
		!strings.Contains(err.Error(), "version 0") || !strings.Contains(err.Error(), "re-run") {
		t.Fatalf("old calibration schema error = %v", err)
	}
	// Unknown field (typo or a future field) fails loudly.
	typo := bytes.Replace(good, []byte(`"backend_hash"`), []byte(`"backend_hsah"`), 1)
	if _, err := ParseCalibration(typo); err == nil {
		t.Fatal("unknown calibration field accepted")
	}
	if _, err := ParseCalibration([]byte("{torn")); err == nil {
		t.Fatal("corrupt calibration accepted")
	}
	// A truncated write (no backend name) is rejected.
	if _, err := ParseCalibration([]byte(`{"schema": 1}`)); err == nil {
		t.Fatal("empty calibration accepted")
	}
	// The corrupt-file error carries the file path for the operator.
	path := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCalibration(path); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("load error lacks the file path: %v", err)
	}
	// A stale artifact (description edited since the fit) is rejected.
	cal := testCalibration()
	edited := validBackend()
	edited.Sockets[0].UncoreMaxGHz = 3.6
	if err := cal.Matches(edited); err == nil || !strings.Contains(err.Error(), "re-calibrate") {
		t.Fatalf("stale artifact error = %v", err)
	}
	other := validBackend()
	other.Name = "OTHER"
	if err := cal.Matches(other); err == nil {
		t.Fatal("artifact matched the wrong backend")
	}
}

func TestPlatformsDirDescriptionsValid(t *testing.T) {
	// Every shipped platforms/*.json description must parse and validate
	// against the current schema (make platforms runs the same check).
	paths, err := filepath.Glob(filepath.Join("..", "..", "platforms", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no descriptions under platforms/")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if b.Paper {
			t.Fatalf("%s: file-shipped description %q claims to be a paper machine", p, b.Name)
		}
	}
}
