package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is one timed operation: its elapsed latency, from the client
// issuing it to the client holding the reply. A failed or refused op keeps
// its error, and statistics treat it as missing every limit.
type sample struct {
	lat    time.Duration
	stolen time.Duration // hypervisor steal per processor since the previous op ended
	err    error
	kloc   float64 // input the operation processed
}

// latency is the effective latency of s in milliseconds: +Inf when the
// operation failed, so no latency limit can count it as met.
func (s sample) latency() float64 {
	if s.err != nil {
		return math.Inf(1)
	}
	return float64(s.lat) / float64(time.Millisecond)
}

// op is one request a closed-loop client issues. run is timed. after is
// the client's untimed handling of the reply (recording what the gates
// check later) and may be nil. kloc is the input size the op processes.
type op struct {
	run   func() error
	after func()
	kloc  float64
}

// closedLoop runs every client's operations in order, each client waiting
// for its previous operation before issuing the next, all clients at
// once. At most len(clients) operations are therefore in flight. It
// returns each client's samples.
func closedLoop(clients [][]op) [][]sample {
	out := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for c, ops := range clients {
		wg.Add(1)
		go func(c int, ops []op) {
			defer wg.Done()
			steal := newStealMeter(procStat)
			defer steal.close()
			samples := make([]sample, len(ops))
			prev := steal.read()
			for i, o := range ops {
				start := time.Now()
				err := o.run()
				lat := time.Since(start)
				now := steal.read()
				samples[i] = sample{lat: lat, stolen: now - prev, err: err, kloc: o.kloc}
				prev = now
				if o.after != nil {
					o.after()
				}
			}
			out[c] = samples
		}(c, ops)
	}
	wg.Wait()
	return out
}

// summary is a latency distribution reduced to the two figures the
// benchmark reports.
type summary struct {
	n       int     // samples
	p50     float64 // ms, nearest-rank median
	tail    float64 // ms, see tailRank
	tailPct int     // percentile the tail reports; 100 means the maximum
	beyond  int     // samples strictly above the tail's rank
}

// summarize reduces samples to their median and tail. Failed samples sort
// last as +Inf.
func summarize(samples []sample) summary {
	if len(samples) == 0 {
		return summary{}
	}
	sorted := make([]float64, len(samples))
	for i, s := range samples {
		sorted[i] = s.latency()
	}
	sort.Float64s(sorted)
	s := summary{n: len(sorted), p50: sorted[nearestRank(50, len(sorted))-1]}
	pct, rank := tailRank(len(sorted))
	s.tailPct, s.tail, s.beyond = pct, sorted[rank-1], len(sorted)-rank
	return s
}

// nearestRank is the 1-based rank of percentile pct among n sorted values.
func nearestRank(pct, n int) int {
	r := int(math.Ceil(float64(pct) / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer make the figure a property of a handful of
// outliers rather than of the distribution.
const minBeyond = 10

// tailRank picks the highest whole percentile, at most 99 and at least
// 90, with at least minBeyond samples beyond its nearest rank. With fewer
// than 10*minBeyond samples not even p90 qualifies, and the tail is the
// maximum (reported as percentile 100).
func tailRank(n int) (pct, rank int) {
	for p := 99; p >= 90; p-- {
		r := nearestRank(p, n)
		if n-r >= minBeyond {
			return p, r
		}
	}
	return 100, n
}

// tailLabel names the tail for humans, e.g. "p99" or "max".
func (s summary) tailLabel() string {
	if s.tailPct == 100 {
		return "max"
	}
	return "p" + strconv.Itoa(s.tailPct)
}

// windowed is a client's samples reduced window by window: each figure is
// the median over windows of consecutive operations. Interference from
// the rest of a shared machine arrives in bursts of a second or two; a
// median over windows keeps a burst that hits one window out of the
// figures, where a figure over the pooled samples would absorb it.
type windowed struct {
	windows  int
	n        int     // samples in all windows
	rate     float64 // ops per second the client spent waiting on ops
	klocRate float64 // input KLOC per second the client spent waiting on ops
	p50      float64 // ms
	tail     float64 // ms, by tailRank within each window
	label    string  // the tail's percentile in each window, e.g. "p99"
	beyond   int     // samples beyond the tail in the smallest window
}

// window is the number of consecutive ops a window holds: the smallest
// with minBeyond samples beyond its p90. A p99 needs windows ten times
// larger and rests on the slowest 1% of ops, which moved by a quarter
// between runs minutes apart on a shared machine while the median moved
// by a sixth.
const window = 100

// windows splits samples, in issue order, into len(samples)/size windows
// of consecutive operations whose sizes differ by at most one.
func windows(samples []sample, size int) [][]sample {
	if len(samples) == 0 {
		return nil
	}
	n := max(1, len(samples)/size)
	wins := make([][]sample, n)
	for i := range wins {
		wins[i] = samples[i*len(samples)/n : (i+1)*len(samples)/n]
	}
	return wins
}

// byWindow takes the median over windows of each window's throughput,
// KLOC rate, p50 and tail.
func byWindow(samples []sample, size int) windowed {
	w := windowed{n: len(samples), beyond: len(samples)}
	wins := windows(samples, size)
	w.windows = len(wins)
	var rates, klocRates, p50s, tails []float64
	for _, win := range wins {
		var spent time.Duration
		var kloc float64
		for _, s := range win {
			spent += s.lat
			kloc += s.kloc
		}
		rates = append(rates, float64(len(win))/spent.Seconds())
		klocRates = append(klocRates, kloc/spent.Seconds())
		sum := summarize(win)
		p50s, tails = append(p50s, sum.p50), append(tails, sum.tail)
		w.label = sum.tailLabel()
		w.beyond = min(w.beyond, sum.beyond)
	}
	if len(wins) > 0 {
		w.rate, w.klocRate = median(rates), median(klocRates)
		w.p50, w.tail = median(p50s), median(tails)
	}
	return w
}

// netOfSteal returns samples whose latencies are net of hypervisor steal:
// each window's latencies (windows as byWindow cuts them) are scaled by
// the share of the window's time the host left to this machine. Steal is
// time a processor of this machine wanted to run while the host ran other
// guests. It is neither the program's work nor a wait the program caused,
// and on a shared host it varies from window to window and run to run. Every
// wait inside the machine, for a lock, a queue, another goroutine or the
// other client, stays in the latency. Steal is counted in ticks of 10 ms,
// too coarse for one op, so it is taken out per window.
func netOfSteal(samples []sample, size int) []sample {
	out := make([]sample, 0, len(samples))
	for _, win := range windows(samples, size) {
		var lat, stolen time.Duration
		for _, s := range win {
			lat, stolen = lat+s.lat, stolen+s.stolen
		}
		keep := 1.0
		if lat > 0 {
			// A window shorter than a tick can read more steal than
			// time; the floor keeps its latencies positive.
			keep = max(0.1, 1-float64(stolen)/float64(lat))
		}
		for _, s := range win {
			s.lat = time.Duration(float64(s.lat) * keep)
			s.stolen = 0
			out = append(out, s)
		}
	}
	return out
}

// stealShare is the share of the samples' elapsed time the host stole.
func stealShare(clients ...[]sample) float64 {
	var lat, stolen time.Duration
	for _, samples := range clients {
		for _, s := range samples {
			lat, stolen = lat+s.lat, stolen+s.stolen
		}
	}
	if lat == 0 {
		return 0
	}
	return float64(stolen) / float64(lat)
}

// stealLine reports how much of the ops' elapsed time netOfSteal took out.
func stealLine(clients ...[]sample) string {
	return fmt.Sprintf("hypervisor steal: %.2f%% of op time, taken out of latencies and rates", 100*stealShare(clients...))
}

// procStat is the kernel's processor time table.
const procStat = "/proc/stat"

// userHZ is the unit of /proc/stat's columns, ticks per second; Linux
// fixes it at 100 for user space on every architecture Go supports.
const userHZ = 100

// stealMeter reads the steal column of /proc/stat: the time this
// machine's processors wanted to run while the host ran something else,
// summed over the processors. read divides it by their number, giving the
// time any one processor lost. Where the table cannot be read, the meter
// reads 0 and nothing is taken out.
type stealMeter struct {
	f    *os.File
	cpus int
	buf  []byte
}

func newStealMeter(path string) *stealMeter {
	m := &stealMeter{buf: make([]byte, 512)}
	table, err := os.ReadFile(path)
	if err != nil {
		return m
	}
	for _, line := range strings.Split(string(table), "\n") {
		if len(line) > 3 && strings.HasPrefix(line, "cpu") && line[3] >= '0' && line[3] <= '9' {
			m.cpus++
		}
	}
	if m.cpus == 0 {
		return m
	}
	if m.f, err = os.Open(path); err != nil {
		m.f = nil
	}
	return m
}

// read is the steal per processor since boot.
func (m *stealMeter) read() time.Duration {
	if m.f == nil {
		return 0
	}
	n, _ := m.f.ReadAt(m.buf, 0) // a short read ends in io.EOF; the first line is all we need
	line, _, _ := strings.Cut(string(m.buf[:n]), "\n")
	// cpu user nice system idle iowait irq softirq steal ...
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * (time.Second / userHZ) / time.Duration(m.cpus)
}

func (m *stealMeter) close() {
	if m.f != nil {
		m.f.Close()
	}
}

// cpuTime is the CPU time the whole process has used, user and system,
// on every thread: the cost of the work regardless of how long the
// machine kept the process waiting for a processor.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// median of a non-empty slice (the mean of the middle two for even n).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rtStats samples the Go runtime counters the per-layer runtime metrics
// are differences of.
type rtStats struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds
	totalCPU   float64 // cumulative CPU seconds available to the runtime
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
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
	return rtStats{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// heapAllocBytes is the cumulative heap allocation, read without
// stopping the world; the traced runs difference it around each call.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// busy sums the samples' latencies: the time a closed-loop client spent
// waiting on its ops.
func busy(samples []sample) time.Duration {
	var d time.Duration
	for _, s := range samples {
		d += s.lat
	}
	return d
}
