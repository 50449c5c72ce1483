package isl

import "math/big"

// CountSymbolicOnly is BasicSet.Count without the enumeration fallback, so
// a test can tell a symbolic count from an enumerated one.
func (b BasicSet) CountSymbolicOnly() (*big.Rat, error) {
	elim, exact := b.EliminateExists()
	if !exact {
		return nil, ErrNotCountable
	}
	return countSymbolic(elim)
}
