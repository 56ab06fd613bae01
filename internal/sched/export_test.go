package sched

// The retention caps, for the tests that fill them.
const (
	MaxBatches = maxBatches
	CacheCap   = cacheCap
)
