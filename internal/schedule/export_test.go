package schedule

// Helpers of this package's tests that the external tests in
// lmcts_test.go share.
var (
	TieInstance = tieInstance
	BenchState  = benchState
)
