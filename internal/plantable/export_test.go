package plantable

// The cached targets and default tables, shared with the external test
// package (which may import core; this package's own tests cannot).
var (
	TestTarget = testTarget
	TestTable  = testTable
)
