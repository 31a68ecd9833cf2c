package main

import (
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// captureStdout returns what f prints to standard output.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() { os.Stdout = saved }()
	f()
	w.Close()
	return <-done
}

func samplesMs(ms ...float64) []sample {
	out := make([]sample, len(ms))
	for i, v := range ms {
		d := time.Duration(v * float64(time.Millisecond))
		out[i] = sample{lat: d}
	}
	return out
}

func ramp(n int) []sample {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	return samplesMs(ms...)
}

func TestTailRuleKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     int
		label   string
		beyond  int
		tailVal float64
	}{
		{n: 4505, pct: 99, label: "p99", beyond: 45, tailVal: 4460},
		{n: 1000, pct: 99, label: "p99", beyond: 10, tailVal: 990},
		{n: 500, pct: 98, label: "p98", beyond: 10, tailVal: 490},
		{n: 150, pct: 93, label: "p93", beyond: 10, tailVal: 140},
		{n: 100, pct: 90, label: "p90", beyond: 10, tailVal: 90},
		{n: 99, pct: 100, label: "max", beyond: 0, tailVal: 99},
		{n: 12, pct: 100, label: "max", beyond: 0, tailVal: 12},
	} {
		s := summarize(ramp(tc.n))
		if s.n != tc.n || s.tailPct != tc.pct || s.tailLabel() != tc.label || s.beyond != tc.beyond || s.tail != tc.tailVal {
			t.Errorf("n=%d: got n=%d %s (pct %d) = %v with %d beyond; want %s = %v with %d beyond",
				tc.n, s.n, s.tailLabel(), s.tailPct, s.tail, s.beyond, tc.label, tc.tailVal, tc.beyond)
		}
		if tc.pct < 100 && s.beyond < minBeyond {
			t.Errorf("n=%d: tail has %d samples beyond it, want >= %d", tc.n, s.beyond, minBeyond)
		}
	}
}

func TestWindowMediansKeepABurstOut(t *testing.T) {
	// 1050 ops of 1 ms, except that the third window ran ten times slower.
	ms := make([]float64, 1050)
	for i := range ms {
		ms[i] = 1
		if i >= 210 && i < 315 {
			ms[i] = 10
		}
	}
	samples := samplesMs(ms...)
	for i := range samples {
		samples[i].kloc = 0.002
	}
	w := byWindow(samples, window)
	if w.windows != 10 || w.n != 1050 || w.label != "p90" || w.beyond < minBeyond {
		t.Fatalf("got %d windows of %d samples, tail %s with %d beyond", w.windows, w.n, w.label, w.beyond)
	}
	if w.p50 != 1 || w.tail != 1 || math.Abs(w.rate-1000) > 1e-6 || math.Abs(w.klocRate-2) > 1e-6 {
		t.Errorf("burst leaked into the medians: p50 %v, tail %v, rate %v, kloc rate %v", w.p50, w.tail, w.rate, w.klocRate)
	}
	if empty := byWindow(nil, window); empty.windows != 0 || empty.n != 0 {
		t.Errorf("no samples gave %+v", empty)
	}
}

func TestReportPrintsSampleCounts(t *testing.T) {
	res := newResult()
	s := summarize(ramp(1000))
	res.set("op_tail_ms", s.tail, s.n, s.tailLabel())
	for _, d := range endToEnd {
		if d.name != "op_tail_ms" {
			res.set(d.name, 1, 7, "")
		}
	}
	out := captureStdout(t, func() {
		if _, err := report(config{workload: "w"}, res, endToEnd, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(out, "op_tail_ms") || !strings.Contains(out, "n=1000 p99") {
		t.Errorf("tail line lacks its sample count and percentile:\n%s", out)
	}
}

func TestFailedOpMissesEveryLimitAndCounts(t *testing.T) {
	failed := sample{lat: time.Microsecond, err: errors.New("429 Too Many Requests")}
	for _, limit := range []float64{0.001, 1, 1e9, math.MaxFloat64} {
		if failed.latency() <= limit {
			t.Errorf("a refused request met the %v ms limit", limit)
		}
	}

	refusals := func(n int) []sample {
		out := make([]sample, n)
		for i := range out {
			out[i] = failed
		}
		return out
	}
	// Most requests refused: the median itself misses every limit.
	if s := summarize(append(ramp(10), refusals(11)...)); !math.IsInf(s.p50, 1) {
		t.Errorf("p50 with 11 of 21 requests refused = %v, want +Inf", s.p50)
	}
	// Eleven refusals in 100: the p90 tail (10 samples beyond) is one.
	if s := summarize(append(ramp(89), refusals(11)...)); s.tailPct != 90 || !math.IsInf(s.tail, 1) {
		t.Errorf("tail with 11 of 100 requests refused = %s %v, want p90 +Inf", s.tailLabel(), s.tail)
	}

	res := newResult()
	res.attempted = 3
	res.fail("request %d refused", 2)
	for _, d := range endToEnd {
		res.set(d.name, math.Inf(1), 3, "")
	}
	var line string
	captureStdout(t, func() {
		var err error
		if line, err = report(config{workload: "w"}, res, endToEnd, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if !strings.Contains(line, `"correct":false`) || !strings.Contains(line, `"failed":1`) {
		t.Errorf("a failed op must make the run incorrect and count as failed: %s", line)
	}
}

func TestClosedLoopNeverExceedsClientCount(t *testing.T) {
	const clients, perClient = 3, 40
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	order := map[int][]int{}
	lists := make([][]op, clients)
	for c := range lists {
		for i := 0; i < perClient; i++ {
			c, i := c, i
			lists[c] = append(lists[c], op{
				run: func() error {
					n := inFlight.Add(1)
					for {
						p := peak.Load()
						if n <= p || peak.CompareAndSwap(p, n) {
							break
						}
					}
					time.Sleep(50 * time.Microsecond)
					inFlight.Add(-1)
					return nil
				},
				after: func() {
					mu.Lock()
					order[c] = append(order[c], i)
					mu.Unlock()
				},
			})
		}
	}
	samples := closedLoop(lists)
	if p := peak.Load(); p > clients || p < 1 {
		t.Fatalf("peak in flight %d, want 1..%d", p, clients)
	}
	for c := 0; c < clients; c++ {
		if len(samples[c]) != perClient {
			t.Errorf("client %d: %d samples, want %d", c, len(samples[c]), perClient)
		}
		for i, got := range order[c] {
			if got != i {
				t.Fatalf("client %d ran op %d at position %d", c, got, i)
			}
		}
	}
}

func TestNetOfStealScalesOnlyStolenWindows(t *testing.T) {
	// Two windows of 100 ops of 2 ms; the host stole a quarter of the
	// second window's time.
	samples := samplesMs(make([]float64, 200)...)
	for i := range samples {
		samples[i].lat = 2 * time.Millisecond
		if i >= 100 && i%2 == 0 {
			samples[i].stolen = time.Millisecond
		}
	}
	net := netOfSteal(samples, 100)
	if len(net) != len(samples) {
		t.Fatalf("%d samples in, %d out", len(samples), len(net))
	}
	if net[0].lat != 2*time.Millisecond || net[99].lat != 2*time.Millisecond {
		t.Errorf("a window without steal changed: %v", net[0].lat)
	}
	if net[100].lat != 1500*time.Microsecond || net[199].lat != 1500*time.Microsecond {
		t.Errorf("a window with a quarter stolen reads %v, want 1.5ms", net[100].lat)
	}
	if got := stealShare(samples[:100], samples[100:]); math.Abs(got-0.125) > 1e-9 {
		t.Errorf("steal share %v, want 0.125", got)
	}
}

func TestStealMeterReadsTheStealColumn(t *testing.T) {
	path := t.TempDir() + "/stat"
	table := "cpu  100 0 50 900 1 0 2 40 0 0\ncpu0 50 0 25 450 1 0 1 20 0 0\ncpu1 50 0 25 450 0 0 1 20 0 0\nintr 1\n"
	if err := os.WriteFile(path, []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	m := newStealMeter(path)
	defer m.close()
	// 40 ticks of 10 ms over two processors.
	if got := m.read(); got != 200*time.Millisecond {
		t.Errorf("steal per processor %v, want 200ms", got)
	}
	if missing := newStealMeter(path + ".none"); missing.read() != 0 {
		t.Error("a meter without a table must read 0")
	}
}
