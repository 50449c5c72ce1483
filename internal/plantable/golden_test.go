package plantable_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"polyufc/internal/core"
	"polyufc/internal/model"
	"polyufc/internal/plantable"
	"polyufc/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/parent.golden.json from the current Build and Lookup output")

const parentGoldenPath = "testdata/parent.golden.json"

// goldenAnswer is Table.Lookup's answer for one nest model.
type goldenAnswer struct {
	GHz float64 `json:"ghz"`
	OK  bool    `json:"ok"`
}

// goldenBackend pins one single-socket backend's default table — the
// digest and length of its marshalled bytes (the three tables are 800 KB
// of indented JSON; the digest proves the same identity) — and the
// table's answer for every nest model of every workload kernel at test
// size, keyed kernel/nest-label.
type goldenBackend struct {
	TableSHA256 string                  `json:"table_sha256"`
	TableBytes  int                     `json:"table_bytes"`
	Lookups     map[string]goldenAnswer `json:"lookups"`
}

func parentGolden(t *testing.T) map[string]goldenBackend {
	out := map[string]goldenBackend{}
	for _, name := range []string{"bdw", "rpl", "wide-uncore"} {
		tg := plantable.TestTarget(t, name)
		tb := plantable.TestTable(t, name)
		data, err := tb.Marshal()
		if err != nil {
			t.Fatal(err)
		}
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

// TestParentGolden fences the one-surface merge: the single-socket
// tables marshal to the bytes, and answer every workload nest with the
// bits, that the two-surface code produced (the golden was generated at
// the commit before the merge).
func TestParentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("three default sweeps and every kernel compiled on each")
	}
	got := parentGolden(t)
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parentGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
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
			t.Errorf("%s: table marshals to %d bytes sha256 %s, parent wrote %d bytes sha256 %s",
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
