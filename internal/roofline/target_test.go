package roofline

import (
	"fmt"
	"testing"
)

// TestKeysFollowTheConstants: every constructor derives a target's key
// material once, and Keys reads it back equal to deriving it afresh; a
// hand-built target derives it on the spot, and a copy given other
// constants gets keys of its own, never the original's.
func TestKeysFollowTheConstants(t *testing.T) {
	tg, err := ResolveName("RPL")
	if err != nil {
		t.Fatal(err)
	}
	refit, err := Refit(tg, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := FromCalibration(tg.Backend, tg.Calibration)
	if err != nil {
		t.Fatal(err)
	}
	derive := func(c *Constants) Keys {
		return Keys{BackendHash: tg.Backend.Hash(), Constants: fmt.Sprintf("%+v", *c), CalHash: c.Hash()}
	}
	for name, x := range map[string]*Target{"Resolve": tg, "Refit": refit, "FromCalibration": loaded} {
		if x.keys == nil {
			t.Errorf("%s: no key material derived", name)
		}
		if got, want := x.Keys(), derive(x.Constants); got != want {
			t.Errorf("%s: Keys = %+v, want %+v", name, got, want)
		}
	}
	if got, want := (&Target{Platform: tg.Platform, Constants: tg.Constants}).Keys(), tg.Keys(); got != want {
		t.Errorf("hand-built: Keys = %+v, want %+v", got, want)
	}
	other := *tg
	c := *tg.Constants
	c.PeakGFlops *= 1.01
	other.Constants = &c
	if got, want := other.Keys(), derive(&c); got != want || got.CalHash == tg.Keys().CalHash {
		t.Errorf("copy with other constants: Keys = %+v, want %+v", got, want)
	}
}
