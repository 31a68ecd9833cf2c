// Command perfbench is the repository's benchmark: three workloads, each
// the only one that loads some layer of the system, measured end to end
// with tracing off and, in a separate traced run, layer by layer from the
// benchmark's own calls into each module's exported entry points.
//
//	perfbench -workload samate-verify|project-corpus|daemon-edit \
//	          -seed N -seconds S -trace 0|1 [-out DIR] [-tracecheck BIN]
//
// Run it through run.sh, which builds it and the trace validator from the
// checkout's sources. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the lines before it
// print every metric by name, unit and sample count. The exit status is 0
// only when every correctness gate passed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what every workload receives.
type config struct {
	seed       int64
	seconds    float64
	trace      bool
	outDir     string // where the traced run writes its trace
	tracecheck string // validator binary for the written trace
	workload   string
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run. Each is defined on every
// workload (README.md gives the per-workload meaning of an "op").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"kloc_per_s", "kloc/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is printed by every traced run. A layer the workload does not
// load reads 0.
var perLayer = []metricDef{
	{"clex.ms_per_op", "ms"},
	{"clex.tokens_per_op", "count"},
	{"cparse.parses_per_op", "count"},
	{"cparse.ms_per_op", "ms"},
	{"cparse.alloc_kb_per_op", "KB"},
	{"cparse.ms_per_kloc", "ms/kloc"},
	{"typecheck.ms_per_op", "ms"},
	{"cpp.ms_per_kloc", "ms/kloc"},
	{"cpp.alloc_kb_per_kloc", "KB/kloc"},
	{"pointsto.ms_per_kloc", "ms/kloc"},
	{"buflen.ms_per_kloc", "ms/kloc"},
	{"overflow.ms_per_kloc", "ms/kloc"},
	{"slr.ms_per_kloc", "ms/kloc"},
	{"str.ms_per_kloc", "ms/kloc"},
	{"slr.applied_ratio", "ratio"},
	{"str.applied_ratio", "ratio"},
	{"core.fix_ms_per_op", "ms"},
	{"core.fix_miss_ms", "ms"},
	{"cinterp.ms_per_op", "ms"},
	{"cinterp.alloc_kb_per_op", "KB"},
	{"harness.residual_ms_per_op", "ms"},
	{"project.fix_ms", "ms"},
	{"project.overhead_share", "ratio"},
	{"project.cross_edges", "count"},
	{"incremental.edit_ms", "ms"},
	{"incremental.reanalyzed_per_edit", "count"},
	{"incremental.reuse_ratio", "ratio"},
	{"server.edit_overhead_ms", "ms"},
	{"server.fix_hit_p50_ms", "ms"},
	{"server.fix_hit_tail_ms", "ms"},
	{"server.fix_miss_p50_ms", "ms"},
	{"server.fix_miss_tail_ms", "ms"},
	{"server.rejected", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.misses", "count"},
	{"cache.evictions", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"trace.overhead_ms_per_op", "ms"},
}

// figure is one measured value with the number of samples behind it.
type figure struct {
	value float64
	n     int
	note  string
}

// result is what a workload run hands back.
type result struct {
	attempted, failed int
	gateErrs          []string // a few failures, for the log
	digest            string   // of the generated inputs
	metrics           map[string]figure
	lines             []string // extra human-readable lines
}

func newResult() *result { return &result{metrics: map[string]figure{}} }

func (r *result) set(name string, v float64, n int, note string) {
	r.metrics[name] = figure{value: v, n: n, note: note}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.gateErrs) < 10 {
		r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(config) (*result, error){
	"samate-verify":  runSamate,
	"project-corpus": runProject,
	"daemon-edit":    runDaemon,
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for inputs and operation order")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "minimum measured time; whole passes are run until it has elapsed")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for the trace file")
	flag.StringVar(&cfg.tracecheck, "tracecheck", "", "trace validator binary (required with -trace 1)")
	flag.Parse()
	cfg.trace = traceFlag == 1

	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: -workload must be one of %s, -seconds > 0, -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	if cfg.trace && cfg.tracecheck == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -trace 1 needs -tracecheck")
		return 2
	}

	start := time.Now()
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out, err := report(cfg, res, defs, time.Since(start))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Println(out)
	if res.failed > 0 {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the human-readable table and returns the JSON line.
func report(cfg config, res *result, defs []metricDef, wall time.Duration) (string, error) {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d %s run, %.1fs wall\n", cfg.workload, cfg.seed, mode, wall.Seconds())
	fmt.Printf("input digest %s\n", res.digest)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	jr := jsonResult{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		f, ok := res.metrics[d.name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		v := f.value
		if math.IsInf(v, 1) {
			// A failed operation sorts as +Inf; JSON has no infinity.
			v = math.MaxFloat64
		}
		fmt.Printf("metric %-34s %14.6g %-8s n=%d %s\n", d.name, f.value, d.unit, f.n, f.note)
		jr.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	failedRatio := 0.0
	if res.attempted > 0 {
		failedRatio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("failed_ratio %.6g (%d of %d ops)\n", failedRatio, res.failed, res.attempted)
	for _, e := range res.gateErrs {
		fmt.Printf("gate failure: %s\n", e)
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// setupRepeats is how many times a workload builds its inputs before its
// first measured pass, and again after each pass.
const setupRepeats = 3

// setup builds a workload's inputs and times every build by the clock.
// The builds are repeated between measured passes, so setup_s, their
// median, samples the same stretch of the run as the ops do rather than
// the machine's state in its first second. Every build must give the same
// input digest.
type setup[T any] struct {
	build  func() (T, string, error)
	in     T // the first build, which the workload uses
	digest string
	times  []float64 // seconds per build
	stolen float64   // seconds of hypervisor steal per processor, over all builds
}

// again runs setupRepeats more builds, each from a collected heap.
func (s *setup[T]) again() error {
	steal := newStealMeter(procStat)
	defer steal.close()
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start, stolen := time.Now(), steal.read()
		in, d, err := s.build()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s.times = append(s.times, time.Since(start).Seconds())
		s.stolen += (steal.read() - stolen).Seconds()
		if len(s.times) == 1 {
			s.in, s.digest = in, d
		} else if d != s.digest {
			return fmt.Errorf("setup: input digest changed between builds with one seed (%s, then %s)", s.digest, d)
		}
	}
	return nil
}

// newSetup builds the inputs setupRepeats times.
func newSetup[T any](build func() (T, string, error)) (*setup[T], error) {
	s := &setup[T]{build: build}
	return s, s.again()
}

// seconds is the median build time net of hypervisor steal. A build is
// shorter than the steal counter's tick, so the steal is taken out as the
// share it holds of all builds' time (see netOfSteal).
func (s *setup[T]) seconds() float64 {
	var total float64
	for _, t := range s.times {
		total += t
	}
	return median(s.times) * max(0.1, 1-s.stolen/total)
}

// measure runs whole passes until at least seconds have elapsed, so every
// pass has the same operation mix and only the number of passes depends
// on speed. between runs after each pass, outside the pass's timing.
func measure(seconds float64, pass, between func() error) (int, error) {
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		if err := pass(); err != nil {
			return passes, err
		}
		passes++
		if err := between(); err != nil {
			return passes, err
		}
	}
	return passes, nil
}

// writeAndCheckTrace writes the traced run's spans and has the trace
// validator accept them.
func writeAndCheckTrace(cfg config, t *tracer, minStages int) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := t.writeChrome(path); err != nil {
		return "", err
	}
	out, err := exec.Command(cfg.tracecheck, "-min-stages", fmt.Sprint(minStages), path).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("trace %s rejected: %v: %s", path, err, strings.TrimSpace(string(out)))
	}
	return fmt.Sprintf("%s: %s", path, strings.TrimSpace(string(out))), nil
}

// msPer converts a total duration to milliseconds per unit.
func msPer(d time.Duration, units float64) float64 {
	if units == 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond) / units
}
