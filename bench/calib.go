package main

import (
	"sync"
	"time"
)

// refNominalMS is the duration of one calibration burst on this runner
// when it is quiet, measured once for the PR that added the benchmark
// (median of 400 single-goroutine bursts: 5.15 ms; on two goroutines at
// once: 5.01 ms). It only fixes the scale of
// "milliseconds at reference machine speed"; comparisons between two
// commits divide it out.
const refNominalMS = 5.0

const (
	hashBufBytes = 256 << 10
	chaseEntries = 1 << 20 // × 4 bytes = 4 MB, beyond this runner's L2
	hashPasses   = 4
	chaseSteps   = 45_000
)

// kernel is the calibration workload: a hash pass over a fixed buffer
// with a data-dependent branch, then a dependent pointer chase through a
// fixed permutation. It calls no repository code and allocates nothing
// after construction, so a change to the repository cannot move it; only
// the machine's speed can.
type kernel struct {
	buf  []byte
	next []uint32
	sink uint64 // keeps the loops live
}

func newKernel() *kernel {
	k := &kernel{buf: make([]byte, hashBufBytes), next: make([]uint32, chaseEntries)}
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 { // xorshift64: fixed contents on every run
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.buf {
		k.buf[i] = byte(rnd())
	}
	// Sattolo's algorithm: one cycle through every entry, so the chase
	// never falls into a short loop that fits in cache.
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := len(k.next) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

// pass runs the kernel once from the given chase start and returns a
// value that depends on every step.
func (k *kernel) pass(start uint32) uint64 {
	h := uint64(start)
	for p := 0; p < hashPasses; p++ {
		for _, b := range k.buf {
			h = h*31 + uint64(b)
			if b&1 != 0 {
				h ^= h >> 7
			}
		}
	}
	i := start
	for s := 0; s < chaseSteps; s++ {
		i = k.next[i]
	}
	return h + uint64(i)
}

// burst times the kernel on `parallel` goroutines at once and returns
// the mean of their durations in milliseconds. A workload that keeps
// several cores busy is calibrated against a burst that does the same.
// Each goroutine runs the pass twice and times the second: the first
// brings the kernel's lines back from wherever the ops before it pushed
// them, so how much memory the repository's code touches does not leak
// into the factor.
func (k *kernel) burst(parallel int) float64 {
	durs := make([]time.Duration, parallel)
	sinks := make([]uint64, parallel)
	var wg sync.WaitGroup
	for g := range durs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := uint32(g*7919 + 1)
			sinks[g] = k.pass(first)
			t := time.Now()
			sinks[g] += k.pass(first)
			durs[g] = time.Since(t)
		}()
	}
	wg.Wait()
	total := 0.0
	for g := range durs {
		total += ms(durs[g])
		k.sink += sinks[g]
	}
	return total / float64(parallel)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
