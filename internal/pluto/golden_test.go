package pluto

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"polyufc/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/deps.golden.json from the current Analyze output")

const depsGoldenPath = "testdata/deps.golden.json"

// goldenDep is Dependence with the array pointer replaced by its name.
type goldenDep struct {
	Array, Src, Dst, Kind      string
	NonNegative, Zero, Carried []bool
}

// goldenNest is the DepInfo of one nest, or the error Analyze returned.
type goldenNest struct {
	Depth int
	Deps  []goldenDep
	Err   string
}

func depsGolden(t testing.TB) map[string]goldenNest {
	out := map[string]goldenNest{}
	for _, k := range workloads.All() {
		for _, nest := range kernelNests(t, k.Name) {
			var g goldenNest
			info, err := Analyze(nest)
			if err != nil {
				g.Err = err.Error()
			} else {
				g.Depth = info.Depth
				for _, d := range info.Deps {
					g.Deps = append(g.Deps, goldenDep{
						Array: d.Array.Name, Src: d.SrcStmt, Dst: d.DstStmt, Kind: d.Kind,
						NonNegative: d.NonNegative, Zero: d.Zero, Carried: d.Carried,
					})
				}
			}
			out[k.Name+"/"+nest.Label] = g
		}
	}
	return out
}

// TestDepsGolden pins the dependences (order, endpoints, kind and every
// per-level flag) of every workload nest at bench size to what the
// one-system-per-textual-access-pair analysis over the unchecked
// Fourier-Motzkin produced (the golden was generated at that commit).
func TestDepsGolden(t *testing.T) {
	data, err := json.Marshal(depsGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		data = bytes.ReplaceAll(data, []byte(`},"`), []byte("},\n\""))
		if err := os.WriteFile(depsGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	// Compare decoded forms, so nil and empty slices do not differ.
	var got, want map[string]goldenNest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(depsGoldenPath); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d nests, golden %d", len(got), len(want))
	}
	for key, w := range want {
		if g := got[key]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", key, g, w)
		}
	}
}
