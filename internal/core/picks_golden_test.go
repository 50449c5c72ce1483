package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

var updatePicks = flag.Bool("update", false, "rewrite testdata/picks.golden.json from the current latency and auto picks")

const picksGoldenPath = "testdata/picks.golden.json"

// TestTilingPicksGolden pins what the target-reading strategies choose:
// the strategy and tile size each latency and auto compile reports for
// every nest of every kernel at test size on BDW and RPL. The three
// witness kernels of -exp tiling pin a handful of these picks; this pins
// them all, so a change to how candidates are scored cannot move one
// unnoticed.
func TestTilingPicksGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every kernel x {BDW, RPL} x {latency, auto}")
	}
	got := map[string]string{}
	for _, p := range []*hw.Platform{hw.BDW(), hw.RPL()} {
		cfg := DefaultConfig(targetFor(t, p))
		cfg.AmortizeFactor = 0
		for _, name := range []string{tiling.NameLatency, tiling.NameAuto} {
			cfg.Tiling = tiling.Spec{Name: name}
			for _, k := range workloads.All() {
				res := compileKernelCfg(t, k.Name, workloads.Test, cfg)
				for i, r := range res.Reports {
					got[fmt.Sprintf("%s/%s/%s/%d:%s", p.Name, name, k.Name, i, r.Label)] = fmt.Sprintf("%s %d", r.Tiling, r.TileSize)
				}
			}
		}
	}
	if *updatePicks {
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		data = bytes.ReplaceAll(data, []byte(`","`), []byte("\",\n\""))
		if err := os.WriteFile(picksGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(picksGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d picks, golden %d", len(got), len(want))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok || g != w {
			t.Errorf("%s: got %q, want %q", key, g, w)
		}
	}
}
