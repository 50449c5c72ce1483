package isl

import (
	"errors"
	"fmt"
)

// ErrEnumLimit is returned when enumeration would exceed the caller's point
// budget.
var ErrEnumLimit = errors.New("isl: enumeration limit exceeded")

// ErrUnbounded is returned when a set has no finite bounds on some
// dimension.
var ErrUnbounded = errors.New("isl: set is unbounded")

// Enumerate yields each distinct integer point of the (parameter-free) set,
// in no particular order, until yield returns false or limit points have
// been produced. Points are deduplicated across the union's basic sets; a
// single basic set yields every point once by construction. The slice
// handed to yield is reused for the next point: yield must not keep it.
func (s Set) Enumerate(limit int, yield func(pt []int64) bool) error {
	if s.Sp.NumParams() != 0 {
		return errors.New("isl: Enumerate requires instantiated parameters")
	}
	live := 0
	for _, b := range s.Basics {
		if !b.markedEmpty {
			live++
		}
	}
	seen := map[string]bool{}
	count := 0
	for _, b := range s.Basics {
		if b.markedEmpty {
			continue
		}
		stop, err := b.enumerate(limit, func(pt []int64) bool {
			if live > 1 {
				key := fmt.Sprint(pt)
				if seen[key] {
					return true
				}
				seen[key] = true
			}
			count++
			if count > limit {
				return false
			}
			return yield(pt)
		})
		if err != nil {
			return err
		}
		if stop {
			if count > limit {
				return ErrEnumLimit
			}
			return nil
		}
	}
	return nil
}

// enumerate walks the integer points of one basic set via recursive bound
// propagation. It reports (stopped, error); stopped means yield returned
// false.
func (b BasicSet) enumerate(limit int, yield func(pt []int64) bool) (bool, error) {
	nv := b.Sp.NumVars()
	full := make([]int64, b.totalCols())
	sys := b.buildBoundSystems()
	var rec func(col int) (bool, error)
	rec = func(col int) (bool, error) {
		if col == nv {
			// All dims fixed, each within its colBounds: every row over the
			// dims holds, and only existentials are left to verify.
			if b.NExist == 0 || b.searchExists(sys, full, nv) {
				if !yield(full[:nv:nv]) {
					return true, nil
				}
			}
			return false, nil
		}
		lo, hi, ok := sys.colBounds(full, col)
		if !ok {
			return false, nil
		}
		const inf = int64(1) << 61
		if lo < -inf || hi > inf {
			return false, ErrUnbounded
		}
		for v := lo; v <= hi; v++ {
			full[col] = v
			stop, err := rec(col + 1)
			if stop || err != nil {
				return stop, err
			}
		}
		full[col] = 0
		return false, nil
	}
	return rec(0)
}

// CountEnumerate counts the distinct integer points of the set by
// exhaustive enumeration, up to the given budget.
func (s Set) CountEnumerate(limit int) (int64, error) {
	var n int64
	err := s.Enumerate(limit, func([]int64) bool { n++; return true })
	return n, err
}
