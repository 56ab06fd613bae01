package main

import "time"

// now is the benchmark's only wall-clock read: every timed window,
// latency sample, span boundary and drive goes through it, so the
// repo's detpath lint sees exactly one annotated site.
func now() time.Time {
	return time.Now() //revtr:wallclock benchmark timing
}

// sinceNS is the elapsed wall time since t, in nanoseconds.
func sinceNS(t time.Time) int64 { return now().Sub(t).Nanoseconds() }
