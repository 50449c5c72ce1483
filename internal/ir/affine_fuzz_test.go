package ir

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refExpr is the reference an AffExpr is checked against: the coefficient
// map the expression type was before it became an immutable term list.
type refExpr struct {
	coef  map[string]int64
	konst int64
}

func (r refExpr) add(s refExpr) refExpr {
	out := refExpr{coef: map[string]int64{}, konst: r.konst + s.konst}
	for _, m := range []map[string]int64{r.coef, s.coef} {
		for iv, c := range m {
			out.coef[iv] += c
		}
	}
	return out
}

func (r refExpr) scale(c int64) refExpr {
	out := refExpr{coef: map[string]int64{}, konst: r.konst * c}
	for iv, v := range r.coef {
		out.coef[iv] = v * c
	}
	return out
}

// ivs returns the IVs with a non-zero coefficient, sorted.
func (r refExpr) ivs() []string {
	var out []string
	for iv, c := range r.coef {
		if c != 0 {
			out = append(out, iv)
		}
	}
	sort.Strings(out)
	return out
}

// String renders r as the map-based expression printed itself.
func (r refExpr) String() string {
	var parts []string
	for _, iv := range r.ivs() {
		switch c := r.coef[iv]; c {
		case 1:
			parts = append(parts, iv)
		case -1:
			parts = append(parts, "-"+iv)
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, iv))
		}
	}
	if r.konst != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprint(r.konst))
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if strings.HasPrefix(p, "-") {
			out += " - " + p[1:]
		} else {
			out += " + " + p
		}
	}
	return out
}

var fuzzIVs = []string{"i", "j", "k", "t0"}

// FuzzAffExprAgainstMap runs a program of constants, terms, sums, scales
// and constant offsets over a few IVs, and checks every value it builds
// against the coefficient-map reference: Eval, Coeff and String agree, the
// terms are in canonical form (sorted, no zero, nil when constant), and no
// later operation, nor a write to what Terms returned, changes a value
// built before it, although Add and AddConst share terms between values.
func FuzzAffExprAgainstMap(f *testing.F) {
	f.Add([]byte{0, 3, 1, 1, 2, 2, 0, 1, 3, 1, 254, 4, 2, 7})
	f.Add([]byte{1, 0, 1, 1, 0, 255, 2, 0, 1, 3, 2, 0, 4, 3, 250})
	f.Add([]byte{1, 2, 3, 1, 3, 5, 2, 0, 1, 2, 2, 1, 3, 2, 0, 2, 3, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var (
			vals  []AffExpr
			refs  []refExpr
			texts []string // each value's text when it was built
			terms [][]Term // each value's terms when it was built
		)
		pick := func(b byte) int { return int(b) % len(vals) }
		next := func() (byte, bool) {
			if len(prog) == 0 {
				return 0, false
			}
			b := prog[0]
			prog = prog[1:]
			return b, true
		}
		for len(vals) < 64 {
			op, ok := next()
			if !ok {
				break
			}
			a, ok1 := next()
			b, ok2 := next()
			if !ok1 || !ok2 {
				break
			}
			c := int64(int8(b)) // small signed operand
			var v AffExpr
			var r refExpr
			switch {
			case op%5 == 0 || len(vals) == 0:
				v, r = AffConst(c), refExpr{konst: c}
			case op%5 == 1:
				iv := fuzzIVs[int(a)%len(fuzzIVs)]
				v, r = AffTerm(c, iv), refExpr{coef: map[string]int64{iv: c}}
			case op%5 == 2:
				x, y := pick(a), pick(b)
				v, r = vals[x].Add(vals[y]), refs[x].add(refs[y])
			case op%5 == 3:
				x := pick(a)
				v, r = vals[x].Scale(c), refs[x].scale(c)
			default:
				x := pick(a)
				v, r = vals[x].AddConst(c), refs[x].add(refExpr{konst: c})
			}
			checkAgainstRef(t, v, r)
			vals, refs = append(vals, v), append(refs, r)
			texts, terms = append(texts, v.String()), append(terms, v.Terms())
			if ts := v.Terms(); len(ts) > 0 {
				ts[0].C += 1000 // a caller's copy, not v's terms
			}
		}
		for i, v := range vals {
			if v.String() != texts[i] || !reflect.DeepEqual(v.terms, terms[i]) {
				t.Fatalf("value %d changed after it was built: %q, was %q", i, v, texts[i])
			}
		}
	})
}

// checkAgainstRef checks one value against its reference.
func checkAgainstRef(t *testing.T, v AffExpr, r refExpr) {
	t.Helper()
	if v.Const != r.konst {
		t.Fatalf("%q: constant %d, want %d", v, v.Const, r.konst)
	}
	if got, want := v.String(), r.String(); got != want {
		t.Fatalf("String %q, want %q", got, want)
	}
	env := map[string]int64{}
	for n, iv := range fuzzIVs {
		env[iv] = int64(3*n - 4)
		if got, want := v.Coeff(iv), r.coef[iv]; got != want {
			t.Fatalf("%q: Coeff(%s) = %d, want %d", v, iv, got, want)
		}
	}
	want := r.konst
	for iv, c := range r.coef {
		want += c * env[iv]
	}
	if got := v.Eval(env); got != want {
		t.Fatalf("%q: Eval = %d, want %d", v, got, want)
	}
	ivs := r.ivs()
	if v.IsConst() != (len(ivs) == 0) || (v.terms == nil) != (len(ivs) == 0) {
		t.Fatalf("%q: IsConst %v, terms %v, reference IVs %v", v, v.IsConst(), v.terms, ivs)
	}
	got := make([]string, len(v.terms))
	for i, term := range v.terms {
		if term.C == 0 {
			t.Fatalf("%q: zero term %v", v, term)
		}
		got[i] = term.IV
	}
	if !slices.Equal(got, ivs) {
		t.Fatalf("%q: term IVs %v, want %v sorted", v, got, ivs)
	}
}
