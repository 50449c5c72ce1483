package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"polyufc/internal/hw"
)

// The expected tables hold one response digest per request of the universe
// (workloads.go), generated at the commit that added the benchmark with
// `bench/run.sh -gen`. A line is a group key, a tab, and the digests of the
// group's requests in index order. Responses are deterministic functions of
// the request, so the same table checks cold, warm, stage-reused, journal-
// replayed and CAS-replayed answers: any of them that differs is a failure.
const expectedDir = "bench/expected"

// digestLen is the hex length kept per response (48 bits): ample to catch a
// changed answer, and it keeps the tables small enough to diff.
const digestLen = 12

func digest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])[:digestLen]
}

// The capped half of a measured answer is read off RAPL-style accumulators
// (hw.Machine), so its last bits depend on what the machine ran before.
// Those four fields are left out of the digest and checked for internal
// consistency instead (measuredConsistent); every other byte is exact.
var accumulatorFields = regexp.MustCompile(`(?m)^\s*"(capped_seconds|capped_joules|capped_edp|edp_gain_pct)": .*\n`)

// digestOf is the digest the expected tables hold for r's response.
func digestOf(r request, body []byte) string {
	if r.Measured {
		body = accumulatorFields.ReplaceAll(body, nil)
	}
	return digest(body)
}

// expectedFile names the table a group lives in: its first word.
func expectedFile(group string) string {
	word, _, _ := strings.Cut(group, " ")
	return filepath.Join(expectedDir, word+".sha256")
}

type expected map[string][]string

func loadExpected() (expected, error) {
	files, err := filepath.Glob(filepath.Join(expectedDir, "*.sha256"))
	if err != nil || len(files) == 0 {
		return nil, fmt.Errorf("no expected tables under %s (glob: %v)", expectedDir, err)
	}
	exp := expected{}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			group, digests, ok := strings.Cut(line, "\t")
			if !ok {
				return nil, fmt.Errorf("%s: malformed line %q", name, line)
			}
			exp[group] = strings.Fields(digests)
		}
	}
	return exp, nil
}

// verdict says why a reply is not the correct answer to r (nil when it
// is): a transport error, a non-200 status, or a body that differs from the
// committed one. Requests outside the universe (pre-warm, characterize
// fills) only need the 200.
func (e expected) verdict(r request, status int, body []byte, err error) error {
	switch {
	case err != nil:
	case status != http.StatusOK:
		err = fmt.Errorf("status %d: %s", status, body)
	case r.Group == "":
	case r.Idx >= len(e[r.Group]) || e[r.Group][r.Idx] != digestOf(r, body):
		err = fmt.Errorf("response %s differs from %s", digestOf(r, body), expectedFile(r.Group))
	case r.Measured:
		err = measuredConsistent(body)
	}
	if err != nil {
		err = fmt.Errorf("POST %s %s: %w", r.Path, r.Body, err)
	}
	return err
}

// measuredConsistent checks the accumulator-derived fields of a measured
// answer against each other and against the exact baseline.
func measuredConsistent(body []byte) error {
	var resp struct {
		Measured *struct {
			BaselineEDP   float64 `json:"baseline_edp"`
			CappedSeconds float64 `json:"capped_seconds"`
			CappedJoules  float64 `json:"capped_joules"`
			CappedEDP     float64 `json:"capped_edp"`
			EDPGainPct    float64 `json:"edp_gain_pct"`
		} `json:"measured"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	m := resp.Measured
	if m == nil {
		return fmt.Errorf("measured request answered without a measured block (degraded to model-only)")
	}
	if m.CappedSeconds <= 0 || m.CappedJoules <= 0 {
		return fmt.Errorf("capped run measured %g s, %g J", m.CappedSeconds, m.CappedJoules)
	}
	if edp := m.CappedSeconds * m.CappedJoules; math.Abs(edp-m.CappedEDP) > 1e-9*edp {
		return fmt.Errorf("capped_edp %g is not capped_seconds x capped_joules = %g", m.CappedEDP, edp)
	}
	if gain := 100 * (1 - m.CappedEDP/m.BaselineEDP); math.Abs(gain-m.EDPGainPct) > 1e-6 {
		return fmt.Errorf("edp_gain_pct %g does not follow from the EDPs (%g)", m.EDPGainPct, gain)
	}
	return nil
}

// grid is one backend's uncore cap grid as /v1/platforms reports it.
type grid struct{ min, max, step float64 }

func (g grid) has(f float64) bool {
	for i := 0; i < hw.GridSize(g.min, g.max, g.step); i++ {
		if math.Abs(hw.GridPoint(g.min, g.step, i)-f) < 1e-9 {
			return true
		}
	}
	return false
}

func parseGrids(platformsBody []byte) (map[string]grid, error) {
	var resp struct {
		Platforms []struct {
			Name string  `json:"name"`
			Min  float64 `json:"uncore_min_ghz"`
			Max  float64 `json:"uncore_max_ghz"`
			Step float64 `json:"cap_step_ghz"`
		} `json:"platforms"`
	}
	if err := json.Unmarshal(platformsBody, &resp); err != nil {
		return nil, err
	}
	out := map[string]grid{}
	for _, p := range resp.Platforms {
		out[p.Name] = grid{p.Min, p.Max, p.Step}
	}
	return out, nil
}

// capsOnGrid checks that every cap a response selects lies on its
// backend's uncore grid (0 means "no cap selected").
func capsOnGrid(body []byte, grids map[string]grid) error {
	var resp struct {
		Arch  string `json:"arch"`
		Nests []struct {
			Label      string    `json:"label"`
			CapGHz     float64   `json:"cap_ghz"`
			SocketCaps []float64 `json:"socket_caps"`
		} `json:"nests"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	g, ok := grids[resp.Arch]
	if !ok {
		return fmt.Errorf("response names unserved backend %q", resp.Arch)
	}
	for _, n := range resp.Nests {
		for _, f := range append([]float64{n.CapGHz}, n.SocketCaps...) {
			if f != 0 && !g.has(f) {
				return fmt.Errorf("%s nest %s: cap %g GHz is off the uncore grid", resp.Arch, n.Label, f)
			}
		}
	}
	return nil
}
