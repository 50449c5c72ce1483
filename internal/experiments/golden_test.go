package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"polyufc/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current renderer output")

// goldenIDs are the deterministic renderers, captured byte-for-byte. Tab.
// IV and fn. 17 (dedup) are excluded: they print wall-clock times.
var goldenIDs = []string{"cluster", "dufs", "fig1", "fig5", "fig6", "fig7", "fig8", "joint", "overhead",
	"tab1", "tab2", "tab3", "tiling", "tilesize", "valid"}

// renderGolden runs one experiment at Test size on a fresh suite and
// returns the rendered bytes.
func renderGolden(t *testing.T, s *Suite, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	prev := s.Out
	s.Out = &buf
	defer func() { s.Out = prev }()
	if err := s.Run(id); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.Bytes()
}

func goldenPath(id string) string {
	return filepath.Join("testdata", id+".golden")
}

// TestGoldenRenderers asserts every deterministic renderer reproduces the
// serial seed output exactly. Run with -update to re-capture.
func TestGoldenRenderers(t *testing.T) {
	s := suite(t)
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			got := renderGolden(t, s, id)
			path := goldenPath(id)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test ./internal/experiments -run TestGoldenRenderers -update`): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s output diverged from golden (%d vs %d bytes); run with -update if the change is intended",
					id, len(got), len(want))
			}
		})
	}
}

// TestGoldenFreshSuite renders the goldens on a second, freshly calibrated
// suite: the capture must not depend on suite construction order or state
// accumulated by earlier tests.
func TestGoldenFreshSuite(t *testing.T) {
	if *updateGolden {
		t.Skip("capturing goldens")
	}
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range goldenIDs {
		got := renderGolden(t, s, id)
		want, err := os.ReadFile(goldenPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: fresh suite output differs from golden", id)
		}
	}
}
