// Command flintperf is the repository's benchmark. It builds a model
// the way cmd/flintserve does and drives it the way the system's two
// kinds of users do: HTTP clients of the serving front-end, in an open
// loop on a seeded arrival schedule, and in-process batch scorers
// calling ServedModel.Predict in a closed loop. Every answer is checked
// against the trained forest's own float Predict, computed at set-up.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash flintperf/run.sh --workload serve-single --seed 1 --seconds 35 --trace 0
//	bash flintperf/run.sh --selfcheck
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans
// around every layer call, writes them to .bench_build/traces, prints a
// per-layer self-time table and the per-layer metrics. The last line
// of standard output is the JSON result. README.md in this directory
// describes the workloads, rates, limits and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run (see README.md)")
		seed      = flag.Int64("seed", 1, "traffic seed")
		seconds   = flag.Float64("seconds", 35, "measured seconds")
		trace     = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload briefly, traced and untraced, and check every metric BENCHMARK.json names")
	)
	flag.Parse()
	if *selfcheck {
		if err := selfCheck(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "flintperf selfcheck FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("flintperf selfcheck passed")
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "flintperf: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flintperf:", err)
		var mm *mismatchError
		if errors.As(err, &mm) {
			out, _ := json.Marshal(result{Correct: false, Metrics: map[string]metric{}})
			fmt.Println(string(out))
		}
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "flintperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// heapSampler records the largest Go heap in use while it runs: the
// bytes of heap objects, live or not yet collected, read every
// heapSampleEvery. It never forces a collection, so it sees short-lived
// per-request memory and leaves the collector to its own pacing.
type heapSampler struct {
	once       sync.Once
	stop, done chan struct{}
	peak       uint64
}

const heapSampleEvery = 20 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// halt stops the sampler and returns its peak in MB; calls after the
// first only return it.
func (h *heapSampler) halt() float64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// liveHeapMB forces a garbage collection and returns the live Go heap
// in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runWorkload sets the deployment up setups times and runs the
// workload's phases: a serving run on the last set-up, an offline run
// across all of them.
func runWorkload(w workload, seed int64, seconds float64, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	cl := newClient(runtime.NumCPU())
	defer cl.close()

	fmt.Printf("workload %s: %s, %d rows, %d trees, depth %d, seed %d, %.0f s, traced %v\n",
		w.name, w.dataset, datasetRows, numTrees, maxDepth, seed, seconds, traced)
	heap := startHeapSampler()
	defer heap.halt()
	var deps []*deployment
	defer func() {
		for _, d := range deps {
			d.tearDown()
		}
	}()
	var times []setupTimes
	modes := map[modeRecord]bool{}
	for i := 0; i < setups; i++ {
		if w.serving && len(deps) > 0 {
			deps[0].tearDown() // a serving run keeps one server up
			deps = deps[:0]
		}
		d, err := setUp(w, tr, cl)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		deps = append(deps, d)
		times = append(times, d.times)
		modes[d.mode] = true
		fmt.Printf("  set-up %d: %.3f s, mode %s, arena %d bytes\n", i+1, d.times.total.Seconds(), d.mode, d.engine.ArenaBytes())
	}
	d := deps[len(deps)-1]
	r := &runner{
		w: w, seed: seed, seconds: seconds, tr: tr, cl: cl, d: d, deps: deps,
		orc:   oracle(d.forest, d.test),
		layer: map[string]float64{},
		times: times,
		modes: len(modes),
	}
	// The only forced collections: after set-up, before the first
	// measured phase, and after the last.
	liveAfterSetUp := liveHeapMB()
	var err error
	switch {
	case w.serving && !traced:
		err = r.serving()
	case w.serving:
		err = r.servingTraced()
	case !traced:
		err = r.offline()
	default:
		err = r.offlineTraced()
	}
	if err != nil {
		return nil, err
	}
	heapPeak := heap.halt()
	heapLive := max(liveAfterSetUp, liveHeapMB())
	fmt.Printf("  heap: peak in use %.2f MB; live after set-up and at the end, max %.2f MB\n", heapPeak, heapLive)
	res := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if traced {
		if err := r.finishTrace(); err != nil {
			return nil, err
		}
		r.layer["proc.heap_peak_mb"] = heapPeak
		for _, pm := range perLayer {
			res.Metrics[pm.name] = metric{r.layer[pm.name], pm.unit}
		}
	} else {
		r.e2e["heap_live_mb"] = heapLive
		r.e2e["setup_s"] = median(collect(times, func(t setupTimes) time.Duration { return t.total }))
		for _, em := range endToEnd {
			res.Metrics[em.name] = metric{r.e2e[em.name], em.unit}
		}
	}
	fmt.Println("metrics:")
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("  %-40s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// collect maps set-up timings to seconds.
func collect(ts []setupTimes, f func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t).Seconds()
	}
	return out
}

// selfCheck runs every workload BENCHMARK.json names for two seconds,
// untraced and traced, and fails when a run errs, an answer is wrong,
// or a metric the file names is missing or not finite.
func selfCheck(seed int64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var problems []error
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Errorf(format, args...))
	}
	for _, ws := range spec.Workloads {
		w, ok := lookupWorkload(ws.Name)
		if !ok {
			fail("workload %q is not defined", ws.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			names := spec.EndToEnd
			if traced {
				names = spec.PerLayer
			}
			res, err := runWorkload(w, seed, 2, traced)
			if err != nil {
				fail("%s (traced %v): %v", w.name, traced, err)
				continue
			}
			if !res.Correct || res.Attempted < 1 {
				fail("%s (traced %v): correct %v, attempted %d", w.name, traced, res.Correct, res.Attempted)
			}
			for _, n := range names {
				m, ok := res.Metrics[n.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					fail("%s (traced %v): metric %s missing or not finite", w.name, traced, n.Name)
				}
			}
		}
	}
	return errors.Join(problems...)
}

func traceFile(w workload, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, seed))
}
