package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The sandboxes this benchmark runs on share their physical cores and
// caches with other machines' work, and that load makes every process run
// up to a third slower for minutes at a time: CPU time inflates with wall
// time, so no statistic over one run can remove it. The harness therefore
// times a fixed calibration probe between rounds and reports host times at
// the speed of a reference host: a measured time is divided by the probe's
// slowdown, interpolated to the moment the time was measured, and a rate
// is multiplied by it. The probe is the benchmark's own code, uses only
// the standard library and allocates nothing, so no change to the
// simulator can change it. The raw wall-clock values are printed beside
// the calibrated ones.

// The reference host's probe times: the median of each kernel over 480
// probes taken in 40 runs on the 2-CPU sandbox the package doc's spreads
// were measured on, with one copy of the kernel running per CPU. Only the
// ratio of two runs' calibrated values matters, so these constants only
// set the scale the values are printed in.
const (
	refHashSec  = 0.044
	refTableSec = 0.042
)

// probeTableWords sizes each probe goroutine's table at 4 MiB: larger than
// the per-core caches, as the simulator's traces and cache models are.
const probeTableWords = 1 << 19

// probe is one calibration measurement.
type probe struct {
	at              time.Time
	hashSec, tblSec float64
}

// slowdown is how much slower than the reference host the probe ran: the
// geometric mean of its two kernels' time ratios.
func (p probe) slowdown() float64 {
	return math.Sqrt(p.hashSec / refHashSec * p.tblSec / refTableSec)
}

// calibration holds the probe's buffers and every probe taken in a run.
type calibration struct {
	bufs   [][]byte
	tables [][]uint64
	probes []probe
	// spent is what the probes cost, so the harness can leave it out of
	// the process's CPU, idle and garbage-collection figures.
	spent probeCost
}

// probeCost adds up the wall time, CPU time and forced garbage
// collections of probes.
type probeCost struct {
	wall, cpu time.Duration
	gcs       uint32
}

func (p probeCost) sub(q probeCost) probeCost {
	return probeCost{p.wall - q.wall, p.cpu - q.cpu, p.gcs - q.gcs}
}

func newCalibration(nproc int) *calibration {
	c := &calibration{}
	for i := 0; i < nproc; i++ {
		c.bufs = append(c.bufs, make([]byte, 64<<10))
		c.tables = append(c.tables, make([]uint64, probeTableWords))
	}
	return c
}

// measure takes one probe: after a full garbage collection, so the
// simulator's leftover collection work does not slow the probe, it runs
// each kernel on every CPU at once and times the slowest copy.
func (c *calibration) measure() {
	wall0, cpu0, gc0 := time.Now(), processCPU(), numGC()
	runtime.GC()
	c.spent.gcs += numGC() - gc0
	p := probe{at: time.Now()}
	p.hashSec = c.parallel(func(i int) { hashKernel(c.bufs[i]) })
	p.tblSec = c.parallel(func(i int) { tableKernel(c.tables[i]) })
	c.probes = append(c.probes, p)
	c.spent.wall += time.Since(wall0)
	c.spent.cpu += processCPU() - cpu0
}

func numGC() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

func (c *calibration) parallel(kernel func(i int)) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := range c.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kernel(i)
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// hashKernel is compute-bound work with a small working set.
func hashKernel(buf []byte) {
	for i := 0; i < 900; i++ {
		sum := sha256.Sum256(buf)
		buf[i%len(buf)] ^= sum[0]
	}
}

// tableKernel is branchy integer work with random reads and writes over a
// table larger than the per-core caches.
func tableKernel(t []uint64) {
	mask := uint64(len(t) - 1)
	r := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 3_500_000; i++ {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		j := r & mask
		switch v := t[j]; v & 3 {
		case 0:
			t[j] = v + r
		case 1:
			t[(j+1)&mask] ^= v
		default:
			t[j] = v >> 1
		}
	}
}

// slowdownAt interpolates the probe slowdown linearly in time between the
// probes around at; before the first or after the last probe it takes the
// nearest one.
func (c *calibration) slowdownAt(at time.Time) float64 {
	ps := c.probes
	if len(ps) == 0 {
		return 1
	}
	i := sort.Search(len(ps), func(i int) bool { return !ps[i].at.Before(at) })
	switch {
	case i == 0:
		return ps[0].slowdown()
	case i == len(ps):
		return ps[len(ps)-1].slowdown()
	}
	a, b := ps[i-1], ps[i]
	f := float64(at.Sub(a.at)) / float64(b.at.Sub(a.at))
	return a.slowdown() + f*(b.slowdown()-a.slowdown())
}

// medianProbe returns the median time of each kernel over the run.
func (c *calibration) medianProbe() (hashSec, tblSec float64) {
	var h, t []float64
	for _, p := range c.probes {
		h = append(h, p.hashSec)
		t = append(t, p.tblSec)
	}
	return median(h), median(t)
}
