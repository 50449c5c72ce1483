package isl

// CountSymbolicOnly is BasicSet.Count without the enumeration fallback, so
// a test can tell a symbolic count from an enumerated one.
func (b BasicSet) CountSymbolicOnly() (int64, error) {
	elim, exact := b.EliminateExists()
	if !exact {
		return 0, ErrNotCountable
	}
	return countBlocks(elim, nil)
}
