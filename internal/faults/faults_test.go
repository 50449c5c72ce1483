package faults

import (
	"errors"
	"testing"
)

func TestNilRegistryIsDisabled(t *testing.T) {
	var r *Registry
	if err := r.Hit("any.point"); err != nil {
		t.Fatalf("nil registry fired: %v", err)
	}
	r.Enable("any.point", Spec{P: 1})
	if r.Calls("any.point") != 0 || r.Fired("any.point") != 0 {
		t.Fatal("nil registry kept counters")
	}
	if pts := r.Points(); pts != nil {
		t.Fatalf("nil registry has points %v", pts)
	}
}

func TestProbabilityTriggerIsDeterministic(t *testing.T) {
	fire := func(seed int64) []bool {
		r := New(seed)
		r.Enable("p", Spec{P: 0.3})
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, r.Hit("p") != nil)
		}
		return out
	}
	a, b := fire(42), fire(42)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
		if a[i] {
			fired++
		}
	}
	// 200 draws at p=0.3: the count must be in a generous band.
	if fired < 30 || fired > 90 {
		t.Fatalf("fired %d/200 at p=0.3", fired)
	}
}

func TestSequenceTrigger(t *testing.T) {
	r := New(1)
	r.Enable("seq", Spec{On: []int64{2, 5}})
	var fired []int
	for i := 1; i <= 6; i++ {
		if r.Hit("seq") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired on calls %v, want [2 5]", fired)
	}
	if r.Calls("seq") != 6 || r.Fired("seq") != 2 {
		t.Fatalf("calls=%d fired=%d", r.Calls("seq"), r.Fired("seq"))
	}
}

func TestTimesBound(t *testing.T) {
	r := New(7)
	r.Enable("bounded", Spec{P: 1, Times: 3})
	fired := 0
	for i := 0; i < 10; i++ {
		if r.Hit("bounded") != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
}

func TestErrorWrapping(t *testing.T) {
	r := New(1)
	custom := errors.New("device busy")
	r.Enable("wrap", Spec{On: []int64{1}, Err: custom})
	err := r.Hit("wrap")
	if !errors.Is(err, custom) {
		t.Fatalf("err %v does not wrap the custom error", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != "wrap" {
		t.Fatalf("err %v does not carry the point name", err)
	}

	r.Enable("def", Spec{On: []int64{1}})
	if err := r.Hit("def"); !errors.Is(err, ErrInjected) {
		t.Fatalf("default err %v does not wrap ErrInjected", err)
	}
}

func TestPanicMode(t *testing.T) {
	r := New(1)
	r.Enable("boom", Spec{On: []int64{1}, Panic: true})
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("no panic")
		}
		if fe, ok := rec.(*Error); !ok || fe.Point != "boom" {
			t.Fatalf("panic value %v", rec)
		}
	}()
	r.Hit("boom")
}

func TestParse(t *testing.T) {
	r, err := Parse("ufs.write.ebusy=0.3; core.cachemodel=@2+4; ufs.thermal.override=0.5x1", 42)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"core.cachemodel", "ufs.thermal.override", "ufs.write.ebusy"}
	got := r.Points()
	if len(got) != len(want) {
		t.Fatalf("points %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("points %v, want %v", got, want)
		}
	}
	// The sequence entry fires on calls 2 and 4 only.
	var fired []int
	for i := 1; i <= 5; i++ {
		if r.Hit("core.cachemodel") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 4 {
		t.Fatalf("@2+4 fired on %v", fired)
	}
	// The bounded entry fires at most once.
	n := 0
	for i := 0; i < 50; i++ {
		if r.Hit("ufs.thermal.override") != nil {
			n++
		}
	}
	if n > 1 {
		t.Fatalf("x1 bound fired %d times", n)
	}

	if r, err := Parse("", 1); r != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", r, err)
	}
	for _, bad := range []string{"noeq", "=0.3", "p=", "p=1.5", "p=@0", "p=0.3x0"} {
		if _, err := Parse(bad, 1); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}
