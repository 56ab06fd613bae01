// Package plain exercises the detpath analyzer outside the
// deterministic set: the wall-clock rule still applies, but global
// math/rand and map ranges are unconstrained.
package plain

import (
	"fmt"
	"math/rand"
	"time"
)

func wallClockStillForbidden() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

func randAndMapsAreFine(m map[string]int) {
	_ = rand.Intn(10)  // global rand allowed outside the deterministic set
	for k := range m { // map order allowed outside the deterministic set
		fmt.Println(k)
	}
}

// malformedDirective is reported by the suite's driver, whichever
// analyzer runs: the kind is not one the suite honours.
func malformedDirective() int {
	return 0 //revtr:frobnicate because // want "unknown revtr directive //revtr:frobnicate"
}
