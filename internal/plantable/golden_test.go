package plantable

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"polyufc/internal/core"
	"polyufc/internal/model"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

const parentGoldenPath = "testdata/parent.golden.json"

// goldenAnswer is Table.Lookup's answer for one nest model.
type goldenAnswer struct {
	GHz float64 `json:"ghz"`
	OK  bool    `json:"ok"`
}

// goldenBackend pins one single-socket backend's table — the digest and
// length of the file the parent's serializer wrote for it (the three
// tables are 800 KB of indented JSON; the digest proves the same
// identity) — and the table's answer for every nest model of every
// workload kernel at test size, keyed kernel/nest-label.
type goldenBackend struct {
	TableSHA256 string                  `json:"table_sha256"`
	TableBytes  int                     `json:"table_bytes"`
	Lookups     map[string]goldenAnswer `json:"lookups"`
}

// parentFile is the single-socket table file the parent wrote, field for
// field: the identity pins, the cap grid, both axes and the two surfaces
// (the rho = 0 plane).
type parentFile struct {
	Schema       int       `json:"schema"`
	Backend      string    `json:"backend"`
	BackendHash  string    `json:"backend_hash"`
	CalHash      string    `json:"calibration_hash"`
	Objective    string    `json:"objective"`
	Epsilon      float64   `json:"epsilon"`
	Tiling       string    `json:"tiling,omitempty"`
	UncoreMinGHz float64   `json:"uncore_min_ghz"`
	UncoreMaxGHz float64   `json:"uncore_max_ghz"`
	CapStepGHz   float64   `json:"cap_step_ghz"`
	OIAxis       []float64 `json:"oi_axis"`
	MemAxis      []float64 `json:"mem_axis"`
	CB           [][]int   `json:"cb"`
	BB           [][]int   `json:"bb"`
}

// parentBytes renders a single-socket table in the parent's file layout.
func parentBytes(t *testing.T, tg *roofline.Target, tb *Table) []byte {
	t.Helper()
	plane := func(s [][][]int) [][]int {
		out := make([][]int, len(s))
		for i, row := range s {
			out[i] = make([]int, len(row))
			for j, cell := range row {
				out[i][j] = cell[0]
			}
		}
		return out
	}
	opts := search.DefaultOptions()
	p := tg.Platform
	data, err := json.MarshalIndent(parentFile{
		Schema: 1, Backend: tg.Backend.Name,
		BackendHash: tg.Backend.Hash(), CalHash: tg.Constants.Hash(),
		Objective: opts.Objective.String(), Epsilon: opts.Epsilon,
		Tiling:       tiling.Spec{}.Fingerprint(),
		UncoreMinGHz: p.UncoreMin, UncoreMaxGHz: p.UncoreMax, CapStepGHz: p.CapStep,
		OIAxis: tb.oiAxis, MemAxis: tb.memAxis,
		CB: plane(tb.cb), BB: plane(tb.bb),
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func parentGolden(t *testing.T) map[string]goldenBackend {
	out := map[string]goldenBackend{}
	for _, name := range []string{"bdw", "rpl", "wide-uncore"} {
		tg := testTarget(t, name)
		tb := testTable(t, name)
		data := parentBytes(t, tg, tb)
		sum := sha256.Sum256(data)
		g := goldenBackend{
			TableSHA256: hex.EncodeToString(sum[:]),
			TableBytes:  len(data),
			Lookups:     map[string]goldenAnswer{},
		}
		for _, k := range workloads.All() {
			mod, err := k.Build(workloads.Test)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Compile(mod, core.DefaultConfig(tg))
			if err != nil {
				t.Fatalf("%s on %s: %v", k.Name, name, err)
			}
			for i, rep := range res.Reports {
				if rep.CM == nil {
					continue
				}
				m := model.New(tg.Constants, model.FromCacheModel(rep.CM, rep.Threads))
				f, ok := tb.Lookup(m)
				g.Lookups[fmt.Sprintf("%s/%d/%s", k.Name, i, rep.Label)] = goldenAnswer{GHz: f, OK: ok}
			}
		}
		out[name] = g
	}
	return out
}

// TestParentGolden fences Build and Lookup against an earlier build: the
// single-socket tables carry the cells, axes and grid the parent swept
// (the digest of the file it wrote for them), and answer every workload
// nest with the bits the parent's Lookup produced.
func TestParentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three default sweeps and every kernel compiled on each")
	}
	got := parentGolden(t)
	data, err := os.ReadFile(parentGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenBackend
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g := got[name]
		if g.TableSHA256 != w.TableSHA256 || g.TableBytes != w.TableBytes {
			t.Errorf("%s: table renders to %d bytes sha256 %s, parent wrote %d bytes sha256 %s",
				name, g.TableBytes, g.TableSHA256, w.TableBytes, w.TableSHA256)
		}
		if len(g.Lookups) != len(w.Lookups) {
			t.Errorf("%s: %d nest models, golden %d", name, len(g.Lookups), len(w.Lookups))
		}
		for key, wa := range w.Lookups {
			if ga := g.Lookups[key]; ga != wa {
				t.Errorf("%s %s: Lookup answered %+v, parent answered %+v", name, key, ga, wa)
			}
		}
	}
}
