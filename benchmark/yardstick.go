package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The reference machine is a shared two-vCPU sandbox whose speed drifts by
// 20 to 30 % in spells of minutes: whole runs of identical work come out
// that much apart, which no statistic over one run's rounds can undo. So
// every round times a yardstick beside its measured phase, a fixed piece of
// the benchmark's own work, and reports its timings at the speed at which
// the yardstick takes yardNominalMs (what it takes on the reference machine
// when that is quiet). The yardstick shares no code with the program under
// test, so a change to the program moves the timings and not the yardstick.
// Ten runs across such a spell: cpu_ms_per_query 19 to 26 % apart as
// measured, 3 to 6 % apart at nominal speed.
const yardNominalMs = 135.0

// yardstickWork is mediator-like work of a fixed size: format, sort, hash
// and merge item sets, with the allocation that goes with them.
func yardstickWork() int {
	const items, universe = 6000, 40000
	common := 0
	for rep := 0; rep < 16; rep++ {
		a := make([]string, 0, items)
		b := make([]string, 0, items)
		for i := 0; i < items; i++ {
			a = append(a, fmt.Sprintf("ID%06d", (i*7919+rep)%universe))
			b = append(b, fmt.Sprintf("ID%06d", (i*104729+rep)%universe))
		}
		sort.Strings(a)
		sort.Strings(b)
		seen := make(map[string]struct{}, items)
		for _, s := range a {
			seen[s] = struct{}{}
		}
		for _, s := range b {
			if _, ok := seen[s]; ok {
				common++
			}
		}
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				common++
				i++
				j++
			}
		}
	}
	return common
}

// yardstick runs the work once on each of the closed loop's lanes at the
// same time, as the measured phase loads the machine, and returns the
// process CPU time it took in milliseconds.
func yardstick() (float64, error) {
	before, err := cpuTime()
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	results := make([]int, clients)
	for c := range results {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = yardstickWork()
		}(c)
	}
	wg.Wait()
	after, err := cpuTime()
	if err != nil {
		return 0, err
	}
	if results[0] == 0 {
		return 0, fmt.Errorf("yardstick found no common items")
	}
	return float64(after-before) / float64(time.Millisecond), nil
}

// atNominal is a phase's wall time at nominal machine speed: the part of it
// that the closed loop's lanes spent on the CPU is scaled by speed (the
// yardstick's time over its nominal time), the rest, which is sleeps and
// waits that the machine's speed does not move, is kept.
func atNominal(wallSec, cpuSec, speed float64) float64 {
	busy := min(wallSec, cpuSec/clients)
	return wallSec - busy*(1-1/speed)
}
