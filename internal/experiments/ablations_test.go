package experiments

import (
	"os"
	"strings"
	"testing"

	"polyufc/internal/platform"
)

func TestTileSizeSweep(t *testing.T) {
	s := suite(t)
	rows, err := s.TileSizeSweep(s.Platforms()[0], "gemm", []int64{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.L1Misses <= 0 || r.EDP <= 0 {
			t.Fatalf("bad row %+v", r)
		}
		if r.CapGHz < s.Platforms()[0].UncoreMin || r.CapGHz > s.Platforms()[0].UncoreMax {
			t.Fatalf("cap out of range: %+v", r)
		}
	}
}

func TestValidationErrorsBounded(t *testing.T) {
	s := suite(t)
	rows, err := s.Validate(s.Target(s.Platforms()[1].Name), []string{"gemm", "mvt", "atax"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.HWSec <= 0 || r.HWJ <= 0 {
			t.Fatalf("%s: bad measurement", r.Kernel)
		}
		// The Sec. V estimates must track the machine within 50% for the
		// regular (non-time-loop) kernels at any size.
		if r.TimeErr > 0.5 || r.EnergyErr > 0.5 {
			t.Fatalf("%s: model error time %.0f%% energy %.0f%%",
				r.Kernel, 100*r.TimeErr, 100*r.EnergyErr)
		}
	}
}

// On the shipped 2-socket description the machine charges the link where
// the compiler placed each nest, so the model's inter-socket term is
// checked against measurement: parallel nests whose time is mostly link
// stay within 25% (they were off by 7-29x while every measurement was
// socket-local). The rendered study carries the 2-socket block.
func TestValidationChargesLink(t *testing.T) {
	s := suite(t)
	// Parse, don't LoadFile: registering the backend would leak it into
	// every other test's platform.All().
	data, err := os.ReadFile("../../platforms/2-socket-bdw.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := s.calibrate(s.ctx(), b)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.Validate(tg, []string{"gemm", "mvt", "atax", "gemver"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TimeErr >= 0.25 {
			t.Errorf("%s on %s: model time %.3g s, measured %.3g s (error %.0f%%)",
				r.Kernel, r.Platform, r.EstSec, r.HWSec, 100*r.TimeErr)
		}
	}

	var buf strings.Builder
	s.Out = &buf
	defer func() { s.Out = nil }()
	if err := s.RenderValidate(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n-- "); n <= len(s.Platforms()) {
		t.Fatalf("validation has %d blocks, no multi-socket one:\n%s", n, buf.String())
	}
}
