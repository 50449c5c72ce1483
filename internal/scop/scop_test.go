package scop

import (
	"encoding/json"
	"strings"
	"testing"

	"polyufc/internal/frontend"
	"polyufc/internal/ir"
	"polyufc/internal/pluto"
)

const src = `
param N = 20
array A[N][N] : f64
array B[N][N] : f64
array C[N][N] : f64
for i = 0 to N-1 {
  for j = 0 to N-1 {
    for k = 0 to N-1 {
      C[i][j] += A[i][k] * B[k][j];
    }
  }
}
`

func exportGemm(t *testing.T) (*SCoP, *ir.Nest) {
	t.Helper()
	mod := mustParse(t, "gemm", src)
	nest := mod.Funcs[0].Ops[0].(*ir.Nest)
	sc, err := Export(nest)
	if err != nil {
		t.Fatal(err)
	}
	return sc, nest
}

func TestExportStructure(t *testing.T) {
	sc, _ := exportGemm(t)
	if len(sc.Statements) != 1 {
		t.Fatalf("statements = %d", len(sc.Statements))
	}
	st := sc.Statements[0]
	if len(st.Iterators) != 3 {
		t.Fatalf("iterators = %v", st.Iterators)
	}
	// 3 loops, one lower + one upper bound each.
	if len(st.Domain.Rows) != 6 {
		t.Fatalf("domain rows = %d", len(st.Domain.Rows))
	}
	// 2d+1 schedule: 7 rows for d=3.
	if len(st.Schedule) != 7 {
		t.Fatalf("schedule rows = %d", len(st.Schedule))
	}
	// 4 accesses (A, B, C read, C write).
	if len(st.Accesses) != 4 {
		t.Fatalf("accesses = %d", len(st.Accesses))
	}
	writes := 0
	for _, a := range st.Accesses {
		if a.Write {
			writes++
		}
	}
	if writes != 1 {
		t.Fatalf("writes = %d", writes)
	}
	if len(sc.Arrays) != 3 {
		t.Fatalf("arrays = %d", len(sc.Arrays))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sc, _ := exportGemm(t)
	data, err := sc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"iterators\"") {
		t.Fatal("JSON missing fields")
	}
	back := new(SCoP)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.Name != sc.Name || len(back.Statements) != len(sc.Statements) {
		t.Fatal("round trip lost structure")
	}
	if back.Statements[0].Flops != 2 {
		t.Fatalf("flops = %d", back.Statements[0].Flops)
	}
}

func TestDomainSetCardinalityPreserved(t *testing.T) {
	sc, nest := exportGemm(t)
	want, err := nest.TripCount()
	if err != nil {
		t.Fatal(err)
	}
	got, err := sc.Statements[0].DomainSet().Count(1 << 22)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reconstructed domain has %d points, want %d", got, want)
	}
}

func TestExportTiledNest(t *testing.T) {
	mod := mustParse(t, "gemm", src)
	nest := mod.Funcs[0].Ops[0].(*ir.Nest)
	tiled, err := pluto.TileNest(nest, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Export(tiled)
	if err != nil {
		t.Fatal(err)
	}
	st := sc.Statements[0]
	if len(st.Iterators) != 6 {
		t.Fatalf("tiled iterators = %v", st.Iterators)
	}
	want, _ := tiled.TripCount()
	got, err := st.DomainSet().Count(1 << 22)
	if err != nil || got != want {
		t.Fatalf("tiled domain points = %d (%v), want %d", got, err, want)
	}
}

func TestExportEmptyNestFails(t *testing.T) {
	if _, err := Export(&ir.Nest{Label: "empty"}); err == nil {
		t.Fatal("expected error for empty nest")
	}
}

// mustParse parses a known-good kernel source.
func mustParse(t *testing.T, name, src string) *ir.Module {
	t.Helper()
	mod, err := frontend.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}
