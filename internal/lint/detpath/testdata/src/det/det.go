// Package det exercises the detpath analyzer inside a deterministic
// package (the /testdata/src/det path opts in).
package det

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// wallClock hits rule 1 with and without the directive.
func wallClock() time.Duration {
	start := time.Now()      // want "time.Now reads the wall clock"
	end := time.Since(start) // want "time.Since reads the wall clock"
	_ = time.Now()           //revtr:wallclock exercising the suppression path
	return end
}

// globalRand hits rule 2; seeded streams stay legal.
func globalRand() int {
	n := rand.Intn(10)                 // want "global math/rand.Intn draws from the process-wide seed"
	rand.Shuffle(3, func(i, j int) {}) // want "global math/rand.Shuffle draws from the process-wide seed"
	rng := rand.New(rand.NewSource(1)) // constructors build seeded streams: fine
	return n + rng.Intn(10)
}

// mapRanges hits rule 3 across the sink taxonomy.
func mapRanges(m map[string]int, w interface{ Write([]byte) (int, error) }) (string, int) {
	total := 0
	for _, v := range m { // integer accumulation commutes
		total += v
	}

	var keys []string
	for k := range m { // collect-then-sort idiom is fine
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var unsorted []string
	for k := range m { // want "appends to unsorted without sorting it afterwards"
		unsorted = append(unsorted, k)
	}

	for k := range m { // want "prints via fmt.Println"
		fmt.Println(k)
	}

	for k := range m { // want "writes output via Write"
		w.Write([]byte(k))
	}

	last := ""
	for k := range m { // want "assigns last .declared outside the loop. in iteration order"
		last = k
	}

	joined := ""
	for k := range m { // want "concatenates onto joined in iteration order"
		joined += k
	}

	sum := 0.0
	for _, v := range m { // want "accumulates floating point into sum"
		sum += float64(v)
	}

	//revtr:unordered suppression path: body is order-sensitive on purpose
	for k := range m {
		last = k
	}

	for range m { // want "returns from inside the loop"
		return last, total
	}
	_ = unsorted
	_ = joined
	_ = sum
	return last, total
}

// trailingWaiver pins the placement rule: a waiver written after one
// statement covers that statement, not the one on the next line.
func trailingWaiver() (time.Time, time.Time) {
	a := time.Now() //revtr:wallclock excuses this line only
	b := time.Now() // want "time.Now reads the wall clock"
	return a, b
}
