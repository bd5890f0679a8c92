package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// runtime/metrics samples read around every timed region.
var meterSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system, from getrusage
	allocBytes float64
	allocObjs  float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail for the calling process.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(meterSamples))
	for i, name := range meterSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: val(0),
		allocObjs:  val(1),
		gcCycles:   val(2),
		gcCPU:      val(3),
		totalCPU:   val(4),
	}
}

// meter accumulates resource use over the timed regions of a run; the
// untimed gaps between them (set-up, oracle checks) are left out.
type meter struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes float64
	allocObjs  float64
	gcCycles   float64
	gcCPU      float64
	totalCPU   float64
}

// span adds the resource use since u to the meter.
func (m *meter) span(u usage) {
	v := readUsage()
	m.wall += v.wall.Sub(u.wall)
	m.cpu += v.cpu - u.cpu
	m.allocBytes += v.allocBytes - u.allocBytes
	m.allocObjs += v.allocObjs - u.allocObjs
	m.gcCycles += v.gcCycles - u.gcCycles
	m.gcCPU += v.gcCPU - u.gcCPU
	m.totalCPU += v.totalCPU - u.totalCPU
}

// liveHeapMB forces a collection and returns the live heap it left.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// percentileMS reads the q-quantile (nearest rank) of the latencies in
// milliseconds; it sorts lat in place.
func percentileMS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	i := int(q*float64(len(lat))+0.5) - 1
	i = max(0, min(i, len(lat)-1))
	return ms(lat[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func frac(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// digest hashes the verdict vector: one line per pair, in stream order.
type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) add(round, i int, kind pairKind, verdict string) {
	fmt.Fprintf(d.h, "%d:%d %s %s\n", round, i, kind, verdict)
}

func (d digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

func meanMS(lat []time.Duration) float64 {
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return frac(ms(sum), float64(len(lat)))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
