package roofline

import "testing"

// TestKeysFollowTheConstants: every constructor derives a target's key
// material once, and Keys reads it back equal to deriving it afresh; a
// target built from an artifact with other constants gets keys of its
// own, never the original's.
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
		return Keys{BackendHash: tg.Backend.Hash(), CalHash: c.Hash()}
	}
	for name, x := range map[string]*Target{"Resolve": tg, "Refit": refit, "FromCalibration": loaded} {
		if x.keys == (Keys{}) {
			t.Errorf("%s: no key material derived", name)
		}
		if got, want := x.Keys(), derive(x.Constants); got != want {
			t.Errorf("%s: Keys = %+v, want %+v", name, got, want)
		}
	}
	cal := *tg.Calibration
	cal.Constants.PeakGFlops *= 1.01
	other, err := FromCalibration(tg.Backend, &cal)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := other.Keys(), derive(&cal.Constants); got != want || got.CalHash == tg.Keys().CalHash {
		t.Errorf("artifact with other constants: Keys = %+v, want %+v", got, want)
	}
}
