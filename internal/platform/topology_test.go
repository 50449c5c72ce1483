package platform

import (
	"reflect"
	"strings"
	"testing"
)

// validTopologyBackend returns a well-formed 2-socket description whose
// sockets are the validBackend machine.
func validTopologyBackend() *Backend {
	sock := validBackend().Sockets[0]
	return &Backend{
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
}

func TestTopologyAccessors(t *testing.T) {
	one := validBackend()
	if one.NumSockets() != 1 || one.NumNodes() != 1 || !one.Homogeneous() ||
		one.TotalCores() != one.Sockets[0].Cores || one.TotalThreads() != one.Sockets[0].Threads {
		t.Fatal("a one-socket description is not a one-socket, one-node topology")
	}
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
