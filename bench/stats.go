package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// median is quantile(xs, 0.5) on a copy, leaving xs unsorted.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// so the ledger's spreads match the ones reviewers compute by hand. A
// single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// heapAllocs reads the cumulative count of heap objects allocated by
// the process.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCounters reads the completed GC cycle count and the total
// stop-the-world pause time so far.
func gcCounters() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}

// liveHeap reads the heap marked live by the most recent GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler samples the live heap every 50 ms while a timed rep
// runs.
type heapSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			h.samples = append(h.samples, float64(liveHeap()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop takes a last sample, ends sampling and returns the 95th
// percentile of the samples in bytes. The live heap is only measured
// when a GC ends, so a plain maximum would depend on where one GC
// happened to land; the 95th percentile does not.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return quantile(append(h.samples, float64(liveHeap())), 0.95)
}

// repMeter measures one timed rep's process-wide cost: heap objects
// allocated, live heap, and GC activity. The caller times the rep
// itself, so work outside the timed calls can be excluded from its wall
// time but still shows in the heap figures.
type repMeter struct {
	allocs0 uint64
	heap0   uint64
	gc0     uint32
	pause0  time.Duration
	heap    *heapSampler
}

// startRep collects the previous rep's garbage, so every rep starts
// from the same heap, and begins metering.
func startRep() *repMeter {
	runtime.GC()
	m := &repMeter{heap0: liveHeap()}
	m.gc0, m.pause0 = gcCounters()
	m.allocs0 = heapAllocs()
	m.heap = startHeapSampler()
	return m
}

// repCost is what a repMeter saw. heapP95 is the live heap's 95th
// percentile above the heap live when the rep started, which holds the
// benchmark's own inputs (crash-judge's corpus) rather than the work's
// memory.
type repCost struct {
	allocs   uint64
	heapP95  float64
	gcCycles uint32
	gcPause  time.Duration
}

func (m *repMeter) stop() repCost {
	c := repCost{allocs: heapAllocs() - m.allocs0}
	c.heapP95 = m.heap.Stop() - float64(m.heap0)
	gc, pause := gcCounters()
	c.gcCycles, c.gcPause = gc-m.gc0, pause-m.pause0
	return c
}
