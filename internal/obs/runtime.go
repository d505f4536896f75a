package obs

import (
	"fmt"
	"math"
	"runtime/metrics"
	"time"
)

// RuntimeHealth is the /debug/runtime payload: what the Go runtime says of
// the process's memory and collector, from runtime/metrics. GC CPU follows
// the bytes a process allocates, so GCCPUShare is the figure that tells
// whether the mediator's own work is as cheap as the cost model assumes.
type RuntimeHealth struct {
	// LiveHeapBytes is the heap the last collection found reachable, and
	// HeapGoalBytes the heap size at which the next one starts.
	LiveHeapBytes uint64 `json:"liveHeapBytes"`
	HeapGoalBytes uint64 `json:"heapGoalBytes"`
	// GCCycles counts completed collections since the process started.
	GCCycles uint64 `json:"gcCycles"`
	// GCCPUShare is the collector's share of the CPU time the runtime has
	// accounted since start: /cpu/classes/gc/total over /cpu/classes/total.
	GCCPUShare float64 `json:"gcCpuShare"`
	// GCPauseP50US and GCPauseP99US are the median and 99th percentile of
	// the stop-the-world pauses for collections, in microseconds: the upper
	// bound of the histogram bucket the percentile falls in.
	GCPauseP50US float64 `json:"gcPauseP50Us"`
	GCPauseP99US float64 `json:"gcPauseP99Us"`
	// Goroutines is how many goroutines are alive.
	Goroutines uint64 `json:"goroutines"`
}

// The runtime/metrics names RuntimeHealth reads, in the order ReadRuntime
// fills them.
var runtimeMetrics = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/goal:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/sched/goroutines:goroutines",
}

// ReadRuntime reads the process's RuntimeHealth now.
func ReadRuntime() RuntimeHealth {
	samples := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	u := func(i int) uint64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return samples[i].Value.Uint64()
	}
	f := func(i int) float64 {
		if samples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return samples[i].Value.Float64()
	}
	h := RuntimeHealth{LiveHeapBytes: u(0), HeapGoalBytes: u(1), GCCycles: u(2), Goroutines: u(6)}
	if total := f(4); total > 0 {
		h.GCCPUShare = f(3) / total
	}
	if samples[5].Value.Kind() == metrics.KindFloat64Histogram {
		pauses := samples[5].Value.Float64Histogram()
		h.GCPauseP50US = quantile(pauses, 0.5) * 1e6
		h.GCPauseP99US = quantile(pauses, 0.99) * 1e6
	}
	return h
}

// quantile is the upper bound of the bucket of hist that holds its q-th
// quantile (the lower bound when that bucket is unbounded above), zero for
// an empty histogram.
func quantile(hist *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, n := range hist.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, n := range hist.Counts {
		if seen += n; seen >= rank {
			if hi := hist.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return hist.Buckets[i]
		}
	}
	return hist.Buckets[len(hist.Buckets)-1]
}

// String is the summary on one line, as fqtop prints it.
func (h RuntimeHealth) String() string {
	us := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Microsecond)).Round(time.Microsecond)
	}
	return fmt.Sprintf("heap %.1f MiB live / %.1f MiB goal, %d GC cycles, GC %.1f%% of CPU, pause p50 %v p99 %v, %d goroutines",
		float64(h.LiveHeapBytes)/(1<<20), float64(h.HeapGoalBytes)/(1<<20), h.GCCycles, 100*h.GCCPUShare,
		us(h.GCPauseP50US), us(h.GCPauseP99US), h.Goroutines)
}
