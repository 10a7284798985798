package main

import (
	"math/rand" //repolint:allow wallclock — the seeded generator of the benchmark's inputs
	"time"
)

// The repository's linter keeps the host clock and math/rand out of the
// simulation. Measuring host time is this package's job, and its inputs
// come from the -seed argument, so both enter it here and nowhere else.

// now reads the host clock.
func now() time.Time {
	return time.Now() //repolint:allow wallclock — the benchmark's second clock
}

func since(t time.Time) time.Duration { return now().Sub(t) }

// rng draws a workload's inputs; the program under test never sees it.
type rng = rand.Rand

func newRNG(seed int64) *rng { return rand.New(rand.NewSource(seed)) }
