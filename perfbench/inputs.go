package main

import (
	"math/rand/v2"
	"time"
)

// newRand returns the benchmark's input generator for one purpose
// (stream) of one seed, so each input is a function of the seed alone.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x62656e6368^stream))
}

// poissonSchedule returns n due times, offsets from the start of the
// open loop, with exponential gaps of mean 1/rate: the arrivals of
// independent users. The same seed gives the same schedule.
func poissonSchedule(seed uint64, rate float64, n int) []time.Duration {
	rng := newRand(seed, 1)
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}
