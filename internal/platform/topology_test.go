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

// validTopologyBackend returns a well-formed 2-socket schema-v2
// description whose sockets are the validBackend machine.
func validTopologyBackend() *Backend {
	sock := validBackend().Sockets[0]
	return &Backend{
		Schema:   SchemaVersion,
		Name:     "TOPO-TEST",
		Aliases:  []string{"tt"},
		CPU:      "Topology Test CPU (2S)",
		Released: 2026,
		Sockets:  []Socket{sock, sock},
		Interconnect: &Interconnect{
			BWGBs: 19.2, LatencyNs: 120, EnergyPJPerByte: 15,
		},
	}
}

func TestTopologyValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Backend)
		want   string
	}{
		{"no sockets", func(b *Backend) { b.Sockets = nil }, "sockets"},
		{"missing interconnect", func(b *Backend) { b.Interconnect = nil }, "interconnect"},
		{"zero link bandwidth", func(b *Backend) { b.Interconnect.BWGBs = 0 }, "interconnect.bw_gbs"},
		{"negative link latency", func(b *Backend) { b.Interconnect.LatencyNs = -1 }, "interconnect.latency_ns"},
		{"negative link energy", func(b *Backend) { b.Interconnect.EnergyPJPerByte = -1 }, "interconnect.energy_pj_per_byte"},
		{"negative nodes", func(b *Backend) { b.Nodes = -2 }, "nodes"},
		{"bad first socket", func(b *Backend) { b.Sockets[0].CapStepGHz = 0 }, "sockets[0].cap_step_ghz"},
		{"bad remote socket", func(b *Backend) { b.Sockets[1].Cores = 0 }, "sockets[1].cores"},
	} {
		b := validTopologyBackend()
		tc.mutate(b)
		err := b.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted the bad topology", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
	if err := validTopologyBackend().Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	// v1 descriptions cannot smuggle topology fields.
	v1 := validBackend()
	v1.Nodes = 4
	if err := v1.Validate(); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("v1-with-nodes error = %v", err)
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	b := validTopologyBackend()
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, got) {
		t.Fatal("round trip changed the topology description")
	}
	if b.Hash() != got.Hash() {
		t.Fatal("hash changed across round trip")
	}
	// A v2 file that omits the flat top-level block decodes to the same
	// description (and therefore the same content hash) as one that
	// spells it out: socket 0 is authoritative either way.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["cores"]; !ok {
		t.Fatal("Marshal no longer repeats socket 0 at the top level")
	}
	for field := range doc {
		switch field {
		case "schema", "name", "aliases", "cpu", "released", "sockets", "interconnect":
		default:
			delete(doc, field)
		}
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := Parse(raw)
	if err != nil {
		t.Fatalf("stripped-flat-block description rejected: %v", err)
	}
	if !reflect.DeepEqual(reparsed, b) || reparsed.Hash() != b.Hash() {
		t.Fatal("decoding is not canonical: a stripped flat block loads differently")
	}
}

// TestV1LoadsAsSingleSocketTopology is the schema-1 decode guard: a
// frozen schema-1 document (and every registered schema-1 description)
// loads as exactly one socket carrying the document's flat fields, and its
// serialized form — and therefore its content hash, which pins
// calibrations — stays schema 1 with none of the topology keys.
func TestV1LoadsAsSingleSocketTopology(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1-frozen.json"))
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	s := frozen.Sockets[0]
	if s.Cores != 16 || s.Threads != 32 || s.UncoreMinGHz != 0.6 || s.UncoreMaxGHz != 5.2 ||
		s.CapStepGHz != 0.05 || s.CapLatencySec != 18e-6 || !s.HasUncoreRAPL ||
		len(s.Cache) != 3 || s.Cache[2].SizeBytes != 33554432 || s.Truth.BWPeakGBs != 90 {
		t.Fatalf("frozen schema-1 document decoded to the wrong socket: %+v", s)
	}
	for _, b := range append(All(), frozen) {
		if b.Schema != SchemaVersionV1 {
			continue
		}
		if got := b.NumSockets(); got != 1 {
			t.Fatalf("%s: NumSockets = %d, want 1", b.Name, got)
		}
		if got := b.NumNodes(); got != 1 {
			t.Fatalf("%s: NumNodes = %d, want 1", b.Name, got)
		}
		if !b.Homogeneous() {
			t.Fatalf("%s: single socket must be homogeneous", b.Name)
		}
		if b.TotalThreads() != b.Sockets[0].Threads || b.TotalCores() != b.Sockets[0].Cores {
			t.Fatalf("%s: totals differ from the single socket", b.Name)
		}
		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"schema": 1`)) {
			t.Fatalf("%s: schema-1 description re-serialized under another version", b.Name)
		}
		for _, key := range []string{`"sockets"`, `"interconnect"`, `"nodes"`} {
			if bytes.Contains(data, []byte(key)) {
				t.Fatalf("%s: v1 serialization grew a %s key — content hash no longer seed-identical", b.Name, key)
			}
		}
	}
}

func TestTopologyAccessors(t *testing.T) {
	b := validTopologyBackend()
	if got := b.NumSockets(); got != 2 {
		t.Fatalf("NumSockets = %d", got)
	}
	if got := b.TotalThreads(); got != 2*b.Sockets[0].Threads {
		t.Fatalf("TotalThreads = %d", got)
	}
	if !b.Homogeneous() {
		t.Fatal("identical sockets reported heterogeneous")
	}
	b.Sockets[1].Threads *= 2
	b.Sockets[1].Cores *= 2
	if b.Homogeneous() {
		t.Fatal("differing sockets reported homogeneous")
	}
	b.Nodes = 4
	if got := b.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d", got)
	}
}
