package platform

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseBackend drives the description decoder with arbitrary bytes:
// whatever comes out must either be a clean error or a description that
// passes Validate, has a well-formed topology view, and round-trips
// bit-stably (same content hash, deterministic marshal). Seeds cover the
// one- and two-socket happy paths plus the inputs the decoder must
// refuse: schema-1 documents (socket fields at the top level), a socket
// field beside the sockets array, unknown fields, an empty sockets
// array, and grid and interconnect degeneracies.
func FuzzParseBackend(f *testing.F) {
	if good, err := validBackend().Marshal(); err == nil {
		f.Add(good)
	}
	if good, err := validTopologyBackend().Marshal(); err == nil {
		f.Add(good)
	}
	f.Add([]byte(`{"schema": 2, "name": "EMPTY", "sockets": []}`))
	f.Add([]byte(`{"schema": 2, "name": "NOIC", "sockets": [{}, {}]}`))
	f.Add([]byte(`{"schema": 1, "name": "SMUGGLE", "nodes": 3}`))
	f.Add([]byte(`{"schema": 1, "name": "FLAT", "cores": 4, "threads": 8, "cap_step_ghz": 0.1, "cache": []}`))
	f.Add([]byte(`{"schema": 2, "name": "FLAT", "cores": 4, "sockets": [{"cores": 4}]}`))
	f.Add([]byte(`{"schema": 2, "name": "X", "sockets": [{"cores": 1, "threads": 1, "cap_step_ghz": 0}]}`))
	f.Add([]byte(`{"schema": 2, "name": "X", "sockets": [{"cores": 1}], "interconnect": {"bw_gbs": -1}}`))
	f.Add([]byte(`{"schema": 2, "name": "X", "sockets": [{"cores": 1}], "nodes": -7}`))
	f.Add([]byte(`{"schema": 99, "name": "FUTURE"}`))
	f.Add([]byte(`{"schema": 2, "name": "TYPO", "sokets": []}`))
	if doc, err := os.ReadFile(filepath.Join("..", "..", "platforms", "2-socket-bdw.json")); err == nil {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Parse(data)
		if err != nil {
			if b != nil {
				t.Fatal("Parse returned a backend alongside an error")
			}
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("Parse accepted a description Validate rejects: %v", err)
		}
		if n := b.NumSockets(); n < 1 {
			t.Fatalf("NumSockets = %d", n)
		}
		if b.NumNodes() < 1 {
			t.Fatalf("NumNodes = %d", b.NumNodes())
		}
		out, err := b.Marshal()
		if err != nil {
			t.Fatalf("accepted description does not marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("marshal of accepted description does not re-parse: %v", err)
		}
		if again.Hash() != b.Hash() {
			t.Fatal("content hash unstable across round trip")
		}
		out2, err := again.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatal("marshal not deterministic")
		}
	})
}
