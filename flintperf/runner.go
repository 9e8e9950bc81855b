package main

import (
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "rows/s"},
	{"lat_p50_ms.light", "ms"},
	{"lat_p50_ms.heavy", "ms"},
	{"max_rps", "1/s"},
	{"ok_frac", "frac"},
	{"heap_live_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Those of a layer a
// workload does not reach read 0; README.md lists which.
var perLayer = []metricDef{
	{"loadgen.sent.light", "count"},
	{"loadgen.ok.light", "count"},
	{"loadgen.failed.light", "count"},
	{"loadgen.sent.heavy", "count"},
	{"loadgen.ok.heavy", "count"},
	{"loadgen.failed.heavy", "count"},
	{"loadgen.lat_p99_ms.light", "ms"},
	{"loadgen.lat_p99_ms.heavy", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"net.client_self_p50_ms", "ms"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.self_p50_ms", "ms"},
	{"serve.coalesce_fill", "rows/batch"},
	{"serve.rejected", "count"},
	{"serve.errors", "count"},
	{"serve.queue_depth_max", "count"},
	{"serve.allocs_per_req", "allocs"},
	{"treeexec.registry.predict_p50_us", "us"},
	{"treeexec.registry.swap_p50_ms", "ms"},
	{"treeexec.registry.swap_max_ms", "ms"},
	{"treeexec.registry.swaps", "count"},
	{"treeexec.batcher.ns_per_row", "ns/row"},
	{"treeexec.batcher.allocs_per_call", "allocs"},
	{"treeexec.kernel.ns_per_row", "ns/row"},
	{"treeexec.kernel.flatflint_ns_per_row", "ns/row"},
	{"treeexec.kernel.compact_ns_per_row", "ns/row"},
	{"treeexec.kernel.float32_ns_per_row", "ns/row"},
	{"treeexec.kernel.flint_speedup", "ratio"},
	{"treeexec.variant_regret", "ratio"},
	{"treeexec.mode.width", "lanes"},
	{"treeexec.mode.distinct", "count"},
	{"treeexec.arena_bytes", "bytes"},
	{"treeexec.build_s", "s"},
	{"treeexec.calibrate_s", "s"},
	{"core.encode_ns_per_row", "ns/row"},
	{"core.precode_ns_per_row", "ns/row"},
	{"rf.reference_ns_per_row", "ns/row"},
	{"dataset.generate_s", "s"},
	{"cart.train_s", "s"},
	{"proc.cpu_us_per_row", "us/row"},
	{"proc.heap_peak_mb", "MB"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_total_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// runner holds one run's deployment, inputs and results.
type runner struct {
	w       workload
	seed    int64
	seconds float64
	tr      *tracer
	cl      *client
	d       *deployment   // the deployment measured: the last set-up
	deps    []*deployment // offline workloads keep every set-up
	orc     []int32
	times   []setupTimes
	modes   int // distinct modes calibration installed over the set-ups

	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
}

func (r *runner) share(f float64) time.Duration {
	return time.Duration(f * r.seconds * float64(time.Second))
}

// count adds a finished phase to the run's accounting.
func (r *runner) count(p *phaseResult) {
	r.attempted += p.sent
	r.failed += p.failed
	fmt.Println("  " + p.String())
}

// phaseSeed gives each phase its own traffic stream from the run seed.
func (r *runner) phaseSeed(k int64) int64 { return r.seed*1000003 + k }

func (r *runner) open(name string, reqs []request, rate float64, dur time.Duration, limitMs float64, k int64, tr *tracer) (*phaseResult, error) {
	p, err := openLoop(name, r.d, r.cl, reqs, r.orc, rate, dur, limitMs, r.phaseSeed(k), tr)
	if err != nil {
		return nil, err
	}
	r.count(p)
	return p, nil
}

// fixedRate runs an open-loop phase at one of the workload's fixed
// rates; a phase the generator could not keep to its schedule is
// invalid, and reports no latency.
func (r *runner) fixedRate(name string, reqs []request, rate float64, dur time.Duration, k int64, tr *tracer) (*phaseResult, error) {
	p, err := r.open(name, reqs, rate, dur, 0, k, tr)
	if err != nil {
		return nil, err
	}
	if !p.valid() {
		return nil, fmt.Errorf("phase %s invalid: generator late p99 %.3f ms > %.1f ms", name, p.lateP99(), p.lateLimitMs)
	}
	return p, nil
}

// segments is how many interleaved pieces an untraced serving run
// splits each light and heavy phase into; an offline run splits them
// into segments pieces per set-up. Latency and throughput figures are
// the median over the pieces, so a second or two of interference from
// outside the process moves one piece, not the figure.
const segments = 3

// medianOf returns the median of f over phases.
func medianOf(ps []*phaseResult, f func(*phaseResult) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return median(v)
}

func p50(p *phaseResult) float64 { return p.sum.p50 }

// pool merges phases run at one rate into a single result.
func pool(name string, ps []*phaseResult) *phaseResult {
	out := &phaseResult{name: name, rate: ps[0].rate, lateLimitMs: ps[0].lateLimitMs}
	for _, p := range ps {
		out.sent += p.sent
		out.ok += p.ok
		out.failed += p.failed
		out.rows += p.rows
		out.lat = append(out.lat, p.lat...)
		out.late = append(out.late, p.late...)
		out.span += p.span
		out.cpu += p.cpu
		out.aborted = out.aborted || p.aborted
	}
	out.sum = summarize(out.lat)
	return out
}

// fixedMetrics fills the end-to-end metrics the light and heavy
// segments give.
func (r *runner) fixedMetrics(light, heavy []*phaseResult) {
	r.e2e["lat_p50_ms.light"] = medianOf(light, p50)
	r.e2e["lat_p50_ms.heavy"] = medianOf(heavy, p50)
	r.e2e["ok_frac"] = float64(r.attempted-r.failed) / float64(r.attempted)
}

// serving is the untraced serving run: light and heavy segments at the
// workload's fixed rates, interleaved, then the max_rps ladder.
func (r *runner) serving() error {
	w := r.w
	reqs := buildRequests(w, r.d.test, r.seed)
	var sw *swapper
	if w.swapEvery > 0 {
		sw = startSwapper(r.d, w.swapEvery)
	}
	defer sw.halt() // a no-op once halted; on an early return its error is secondary
	var light, heavy []*phaseResult
	for i := int64(0); i < segments; i++ {
		l, err := r.fixedRate(fmt.Sprintf("light.%d", i+1), reqs, w.lightRPS, r.share(w.lightShare/segments), 1+2*i, nil)
		if err != nil {
			return err
		}
		h, err := r.fixedRate(fmt.Sprintf("heavy.%d", i+1), reqs, w.heavyRPS, r.share(w.heavyShare/segments), 2+2*i, nil)
		if err != nil {
			return err
		}
		light, heavy = append(light, l), append(heavy, h)
	}
	best, err := r.ladder(reqs, pool("heavy", heavy), r.share(1-w.lightShare-w.heavyShare))
	if err != nil {
		return err
	}
	if err := sw.halt(); err != nil {
		return err
	}
	fmt.Printf("  max_rps rung %.0f req/s: %s\n", best.rate, best.sum)
	r.e2e = map[string]float64{
		"rows_per_s": best.perSecond(best.rows),
		"max_rps":    best.perSecond(best.ok),
	}
	r.fixedMetrics(light, heavy)
	return nil
}

// ladder finds the highest rate on the workload's fixed ladder whose
// p99 meets the latency limit with no more than 1% of requests beyond
// it (so without a growing backlog), with nothing failed and the
// generator on schedule. It bisects the ladder to two adjacent rungs,
// starting at the heavy rung with the heavy phase as its first try. A
// rung fails only when a second try fails too, so one stall from
// outside the process does not send the search the wrong way. Each step
// gets budget over the worst-case number of steps, and at least
// minStepSamples requests, so the search always finishes. It returns
// the best passing step.
func (r *runner) ladder(reqs []request, heavy *phaseResult, budget time.Duration) (*phaseResult, error) {
	w := r.w
	passes := func(p *phaseResult) bool {
		return !p.aborted && p.failed == 0 && p.valid() && p.sum.p99 <= w.limitMs
	}
	rungs := w.ladder()
	probes := bits.Len(uint(max(ladderDown, ladderUp))) // bisecting the longer side
	step := budget / time.Duration(2*probes+1)
	// probe tries rung i, twice if the first try fails; p, when not
	// nil, is an earlier first try.
	probe := func(i int, p *phaseResult) (*phaseResult, error) {
		rate := rungs[i]
		dur := step
		if r.seconds >= 10 {
			dur = max(step, time.Duration(float64(minStepSamples)/rate*float64(time.Second)))
		}
		tries := 0
		if p != nil {
			tries = 1
		}
		for ; tries < 2 && (p == nil || !passes(p)); tries++ {
			var err error
			p, err = r.open(fmt.Sprintf("ladder@%.0f", rate), reqs, rate, dur, w.limitMs, 100+2*int64(i)+int64(tries), nil)
			if err != nil {
				return nil, err
			}
		}
		return p, nil
	}
	lo, hi := -1, len(rungs)
	var best *phaseResult
	for i, first := ladderDown, heavy; hi-lo > 1; i, first = (lo+hi)/2, nil {
		p, err := probe(i, first)
		if err != nil {
			return nil, err
		}
		if passes(p) {
			lo, best = i, p
		} else {
			hi = i
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no rate on the ladder meets the %.0f ms p99 limit", w.limitMs)
	}
	if hi == len(rungs) {
		fmt.Printf("  max_rps: the top rung passed; the ladder caps this reading\n")
	}
	return best, nil
}

// offline is the untraced offline run: one caller, then one caller per
// CPU, scoring fixed blocks back to back. The segments cycle through
// the set-ups' models, so the median also spans the modes calibration
// installed.
func (r *runner) offline() error {
	w := r.w
	blocks := buildBlocks(w, r.d.test, r.seed)
	n := float64(segments * len(r.deps))
	var light, heavy []*phaseResult
	for i := 0; i < int(n); i++ {
		d, k := r.deps[i%len(r.deps)], int64(2*i)
		l, err := closedLoop(fmt.Sprintf("light.%d", i+1), d, blocks, r.orc, 1, r.share(w.lightShare/n), r.phaseSeed(1+k), nil)
		if err != nil {
			return err
		}
		r.count(l)
		h, err := closedLoop(fmt.Sprintf("heavy.%d", i+1), d, blocks, r.orc, runtime.NumCPU(), r.share(w.heavyShare/n), r.phaseSeed(2+k), nil)
		if err != nil {
			return err
		}
		r.count(h)
		light, heavy = append(light, l), append(heavy, h)
	}
	r.e2e = map[string]float64{
		"rows_per_s": medianOf(heavy, func(p *phaseResult) float64 { return p.perSecond(p.rows) }),
		"max_rps":    medianOf(heavy, func(p *phaseResult) float64 { return p.perSecond(p.ok) }),
	}
	r.fixedMetrics(light, heavy)
	return nil
}

// gcDelta measures garbage collection over f.
func gcDelta(f func() error) (cycles uint32, pause time.Duration, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = f()
	runtime.ReadMemStats(&m1)
	return m1.NumGC - m0.NumGC, time.Duration(m1.PauseTotalNs - m0.PauseTotalNs), err
}

func (r *runner) phaseCounts(light, heavy *phaseResult) {
	r.layer["loadgen.sent.light"] = float64(light.sent)
	r.layer["loadgen.ok.light"] = float64(light.ok)
	r.layer["loadgen.failed.light"] = float64(light.failed)
	r.layer["loadgen.sent.heavy"] = float64(heavy.sent)
	r.layer["loadgen.ok.heavy"] = float64(heavy.ok)
	r.layer["loadgen.failed.heavy"] = float64(heavy.failed)
	r.layer["loadgen.lat_p99_ms.light"] = light.sum.p99
	r.layer["loadgen.lat_p99_ms.heavy"] = heavy.sum.p99
	r.layer["proc.cpu_us_per_row"] = heavy.cpu.Seconds() * 1e6 / float64(heavy.rows)
}

// servingTraced is the traced serving run: the light phase once
// untraced and once traced (their p50 gap is the tracing overhead), a
// traced heavy phase with the front-end's counters, a replay of the
// coalesced batch shape through the registry, a direct count of the
// handler's allocations, and the kernel layers.
func (r *runner) servingTraced() error {
	w, d := r.w, r.d
	reqs := buildRequests(w, d.test, r.seed)
	var sw *swapper
	if w.swapEvery > 0 {
		sw = startSwapper(d, w.swapEvery)
	}
	defer sw.halt() // a no-op once halted; on an early return its error is secondary
	base, err := r.fixedRate("light", reqs, w.lightRPS, r.share(w.lightShare/2), 1, nil)
	if err != nil {
		return err
	}
	light, err := r.fixedRate("light.traced", reqs, w.lightRPS, r.share(w.lightShare/2), 1, r.tr)
	if err != nil {
		return err
	}
	r.layer["trace.overhead_frac"] = light.sum.p50/base.sum.p50 - 1

	st0 := d.srv.Status()[0]
	n0 := r.tr.count()
	depth := 0
	stopPoll, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				depth = max(depth, d.srv.Status()[0].QueueDepth)
			}
		}
	}()
	var heavy *phaseResult
	cycles, pause, err := gcDelta(func() (err error) {
		heavy, err = r.fixedRate("heavy.traced", reqs, w.heavyRPS, r.share(w.heavyShare), 2, r.tr)
		return err
	})
	close(stopPoll)
	<-polled
	if err != nil {
		return err
	}
	if err := sw.halt(); err != nil {
		return err
	}
	if sw != nil && len(sw.durs) > 0 {
		r.layer["treeexec.registry.swaps"] = float64(len(sw.durs))
		r.layer["treeexec.registry.swap_p50_ms"] = median(sw.durs)
		r.layer["treeexec.registry.swap_max_ms"] = pct(sw.durs, 1)
	}
	st1 := d.srv.Status()[0]
	r.phaseCounts(light, heavy)
	r.layer["loadgen.late_p99_ms"] = max(light.lateP99(), heavy.lateP99())
	r.layer["proc.gc_cycles"] = float64(cycles)
	r.layer["proc.gc_pause_total_ms"] = ms(pause)

	rows := selfTimes(r.tr.since(n0))
	if h := rows["serve.handler"]; h != nil {
		r.layer["serve.handler_p50_ms"] = pct(h.durs, 0.5)
		r.layer["serve.handler_p99_ms"] = pct(h.durs, 0.99)
	}
	if c := rows["net.client"]; c != nil {
		r.layer["net.client_self_p50_ms"] = pct(c.selves, 0.5)
	}
	fill := float64(st1.CoalescedRows-st0.CoalescedRows) / float64(max(1, st1.CoalescedBatches-st0.CoalescedBatches))
	r.layer["serve.coalesce_fill"] = fill
	r.layer["serve.rejected"] = float64(st1.Rejected - st0.Rejected)
	r.layer["serve.errors"] = float64(st1.Errors - st0.Errors)
	r.layer["serve.queue_depth_max"] = float64(depth)

	replay, err := replayRegistry(d, r.orc, fill, r.tr)
	if err != nil {
		return err
	}
	r.layer["treeexec.registry.predict_p50_us"] = replay
	r.layer["serve.self_p50_ms"] = r.layer["serve.handler_p50_ms"] - replay/1e3
	if r.layer["serve.allocs_per_req"], err = handlerAllocs(d, reqs, r.orc); err != nil {
		return err
	}
	return r.commonLayers()
}

// offlineTraced is the traced offline run: the one-caller phase once
// untraced and once traced, a traced phase of one caller per CPU, and
// the kernel layers.
func (r *runner) offlineTraced() error {
	w, d := r.w, r.d
	blocks := buildBlocks(w, d.test, r.seed)
	base, err := closedLoop("light", d, blocks, r.orc, 1, r.share(w.lightShare/2), r.phaseSeed(1), nil)
	if err != nil {
		return err
	}
	r.count(base)
	light, err := closedLoop("light.traced", d, blocks, r.orc, 1, r.share(w.lightShare/2), r.phaseSeed(1), r.tr)
	if err != nil {
		return err
	}
	r.count(light)
	r.layer["trace.overhead_frac"] = light.sum.p50/base.sum.p50 - 1
	var heavy *phaseResult
	cycles, pause, err := gcDelta(func() (err error) {
		heavy, err = closedLoop("heavy.traced", d, blocks, r.orc, runtime.NumCPU(), r.share(w.heavyShare/2), r.phaseSeed(2), r.tr)
		return err
	})
	if err != nil {
		return err
	}
	r.count(heavy)
	r.phaseCounts(light, heavy)
	r.layer["proc.gc_cycles"] = float64(cycles)
	r.layer["proc.gc_pause_total_ms"] = ms(pause)
	return r.commonLayers()
}

// commonLayers fills the set-up and kernel layer metrics every traced
// run reports.
func (r *runner) commonLayers() error {
	if err := kernelLayers(r.d, r.orc, r.tr, r.layer); err != nil {
		return err
	}
	r.layer["treeexec.mode.distinct"] = float64(r.modes)
	r.layer["treeexec.build_s"] = median(collect(r.times, func(t setupTimes) time.Duration { return t.build }))
	r.layer["treeexec.calibrate_s"] = median(collect(r.times, func(t setupTimes) time.Duration { return t.calibrate }))
	r.layer["dataset.generate_s"] = median(collect(r.times, func(t setupTimes) time.Duration { return t.generate }))
	r.layer["cart.train_s"] = median(collect(r.times, func(t setupTimes) time.Duration { return t.train }))
	return nil
}

// finishTrace writes the span file and prints the self-time table.
func (r *runner) finishTrace() error {
	spans := r.tr.snapshot()
	path := traceFile(r.w, r.seed)
	if err := writeSpanFile(path, r.w.name, r.seed, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("per-layer self time (%d spans, written to %s):\n", len(spans), path)
	writeSelfTable(os.Stdout, selfTimes(spans))
	fmt.Printf("tracing overhead on light p50: %+.1f%%\n", 100*r.layer["trace.overhead_frac"])
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
