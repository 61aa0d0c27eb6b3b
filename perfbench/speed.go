package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host's speed is set by load from other tenants: on a shared
// virtual machine the same pass runs up to twice as fast in one period
// as in another, and a period covers whole runs (NOTES.md, "Host speed").
// The untraced runs therefore time, between every two passes, a fixed
// probe of the benchmark's own and report each pass at the speed the
// probe had on the reference host. The probe is written here and calls
// nothing of the program's, so a change to the program does not move it.

// probeIters is one core's share of one probe, about 0.13 s on the
// reference host.
const probeIters = 600_000

// probeTableLen is the length of each core's histogram table: 2 MiB,
// more than a core's private cache, so the probe also waits on memory
// as the passes do.
const probeTableLen = 1 << 19

// refProbeRate is the probe's rate, in iterations per second over all
// cores, on the reference host (NOTES.md, "Host speed") in its usual
// period. Only the ratio to it matters: it sets the scale of the
// reported figures, not their spread.
const refProbeRate = 9.0e6

// prober times the probe. It owns one histogram table per core, made
// once so that every probe does the same work.
type prober struct {
	tables [][]uint32
	sink   uint64 // keeps the probe's result live
}

func newProber() *prober {
	p := &prober{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		p.tables = append(p.tables, make([]uint32, probeTableLen))
	}
	return p
}

// speed runs the probe on every core at once, as a pass uses them, and
// returns the host's speed relative to the reference host: above 1 when
// the host is faster now.
func (p *prober) speed() float64 {
	sums := make([]uint64, len(p.tables))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, tbl := range p.tables {
		wg.Add(1)
		go func(i int, tbl []uint32) {
			defer wg.Done()
			sums[i] = probeWork(uint64(i+1), tbl, probeIters)
		}(i, tbl)
	}
	wg.Wait()
	rate := float64(len(p.tables)*probeIters) / time.Since(t0).Seconds()
	for _, s := range sums {
		p.sink += s
	}
	return rate / refProbeRate
}

// probeWork is a miniature of a repetition: eight exponential fault
// gaps drawn from a SplitMix64 stream, a branch on each (fault before
// or after the segment's checkpoint), and the repetition's length
// counted into a histogram table.
func probeWork(seed uint64, table []uint32, n int) uint64 {
	s := seed
	var acc uint64
	mask := uint64(len(table) - 1)
	for i := 0; i < n; i++ {
		t := 0.0
		for seg := 0; seg < 8; seg++ {
			s += 0x9e3779b97f4a7c15
			u := float64(splitmix(s)>>11)/(1<<53) + 0x1p-60
			if gap := -math.Log(u) * 800; gap < 100 {
				t += gap + 10
			} else {
				t += 102
			}
		}
		j := (uint64(t*64) ^ s) & mask
		table[j]++
		acc += uint64(table[j])
	}
	return acc
}
