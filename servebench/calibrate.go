package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"
)

// The benchmark's host shares its cores with other work, and the speed
// it offers one process drifts by tens of percent over minutes and
// switches state within tens of milliseconds: a fixed CPU loop timed in
// half-second windows ranged from 184 to 426 iterations within one
// minute, and the share of route-walk requests in the slow of two
// latency modes swung between 3% and 88% from one 80 ms stretch to the
// next. Raw timings therefore move with the machine, not only with the
// program. To factor the machine out, the benchmark samples a fixed
// calibration kernel after every calEvery of the timed phase and around
// every set-up, between requests, and states each stretch's timings at
// the nominal machine speed: scaled by calNominal over the kernel time
// sampled around that stretch. The kernel scans and compacts a fixed
// instance document with encoding/json — branchy parsing over a few
// kilobytes, the work the server's request path does and the kind the
// host's contention slows most (integer, hashing and memory-latency
// kernels tracked the slowdowns far less well). It allocates nothing, so
// the server's heap and garbage collector cannot move it. The raw values
// are printed beside the scaled ones.

// calNominal is the kernel's median time on the 2-vCPU host the bounds in
// BENCHMARK.json were set on.
const calNominal = 650 * time.Microsecond

// calEvery is how much closed-loop time passes between kernel samples.
const calEvery = 50 * time.Millisecond

// calRounds is the number of Valid and Compact passes per sample.
const calRounds = 16

// calibrator runs the kernel and keeps its sampled times.
type calibrator struct {
	doc     []byte
	buf     bytes.Buffer
	samples []time.Duration
}

// newCalibrator builds the kernel's document: an instance in the instio
// wire form with 14 weights and 30 actions.
func newCalibrator() *calibrator {
	c := &calibrator{}
	var b bytes.Buffer
	b.WriteString(`{"weights": [`)
	for i := 0; i < 14; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.Itoa(i*7 + 3))
	}
	b.WriteString("],\n\"actions\": [")
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteString(",\n")
		}
		fmt.Fprintf(&b, `  {"name": "symptom-%d", "objects": [1, 4, 7, 9], "cost": %d, "treatment": %t}`, i, i+2, i%3 == 0)
	}
	b.WriteString("]}")
	c.doc = b.Bytes()
	c.buf.Grow(len(c.doc))
	return c
}

// sample times the kernel once and returns its index in samples.
func (c *calibrator) sample() int {
	t0 := time.Now()
	for i := 0; i < calRounds; i++ {
		c.buf.Reset()
		if !json.Valid(c.doc) || json.Compact(&c.buf, c.doc) != nil {
			panic("servebench: the calibration document is not valid JSON")
		}
	}
	c.samples = append(c.samples, time.Since(t0))
	return len(c.samples) - 1
}

// factor states a stretch that ran between samples i and i+1 at the
// nominal speed: calNominal over the median of the samples i-1, i and
// i+1 (those that exist).
func (c *calibrator) factor(i int) float64 {
	var near []time.Duration
	for j := i - 1; j <= i+1; j++ {
		if j >= 0 && j < len(c.samples) {
			near = append(near, c.samples[j])
		}
	}
	sort.Slice(near, func(a, b int) bool { return near[a] < near[b] })
	return float64(calNominal) / float64(near[len(near)/2])
}
