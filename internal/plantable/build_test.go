package plantable

import (
	"context"
	"testing"
)

// TestBuildRejectsBadTarget: a half-resolved target is an input error,
// not a panic.
func TestBuildRejectsBadTarget(t *testing.T) {
	if _, err := Build(context.Background(), nil, BuildOptions{}); err == nil {
		t.Fatal("Build accepted a nil target")
	}
}
