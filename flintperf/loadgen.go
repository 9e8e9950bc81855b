package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flint/internal/treeexec"
)

// spanHeader carries the client span's ID to the server-side tracing
// middleware, so both sides of one request share it.
const spanHeader = "X-Flintperf-Span"

// client is the load generator's HTTP side: at most one keep-alive
// connection per CPU.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// predict posts one request body and returns the classes answered. A
// non-zero id is sent in spanHeader.
func (c *client) predict(url string, body []byte, id uint64) ([]int32, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var r struct {
		Classes []int32 `json:"classes"`
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return r.Classes, nil
}

// traceHandler records the server-side span of every request that
// carries spanHeader, as a child of the client's span.
func traceHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		s := time.Now()
		h.ServeHTTP(w, r)
		if id != 0 {
			tr.record(id, "serve.handler", "net.client", s, time.Now())
		}
	})
}

// request is one pre-encoded predict body and the test rows it carries.
type request struct {
	body []byte
	rows []int
}

func rowBody(rows [][]float32) []byte {
	var v any = struct {
		Rows [][]float32 `json:"rows"`
	}{rows}
	if len(rows) == 1 {
		v = struct {
			Row []float32 `json:"row"`
		}{rows[0]}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // float32 slices always marshal
	}
	return b
}

// buildRequests encodes the bodies a serving workload sends: every
// test row alone for single-row traffic, or seeded draws of w.rows test
// rows per body for batch traffic.
func buildRequests(w workload, test [][]float32, seed int64) []request {
	if w.rows == 1 {
		reqs := make([]request, len(test))
		for i, r := range test {
			reqs[i] = request{rowBody([][]float32{r}), []int{i}}
		}
		return reqs
	}
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, 64)
	for i := range reqs {
		idx := make([]int, w.rows)
		rows := make([][]float32, w.rows)
		for j := range idx {
			idx[j] = rng.Intn(len(test))
			rows[j] = test[idx[j]]
		}
		reqs[i] = request{rowBody(rows), idx}
	}
	return reqs
}

// phaseResult is one measured phase: its accounting, latencies and the
// process CPU time it used.
type phaseResult struct {
	name                   string
	rate                   float64 // scheduled requests/s (0: closed loop)
	lateLimitMs            float64 // a phase whose lateness p99 exceeds this is invalid
	sent, ok, failed, rows int
	lat                    []float64 // ms; failed requests are +Inf
	late                   []float64 // ms the generator woke after a due time it slept for
	span                   time.Duration
	aborted                bool
	cpu                    time.Duration
	sum                    latencySummary
}

func (p *phaseResult) lateP99() float64 {
	if len(p.late) == 0 {
		return 0
	}
	s := append([]float64(nil), p.late...)
	sort.Float64s(s)
	return quantile(s, 0.99)
}

// valid reports whether the generator kept to its schedule: its p99
// lateness stayed within lateLimitMs.
func (p *phaseResult) valid() bool { return p.lateP99() <= p.lateLimitMs }

func (p *phaseResult) perSecond(n int) float64 { return float64(n) / p.span.Seconds() }

func (p *phaseResult) String() string {
	s := fmt.Sprintf("%-14s sent %6d ok %6d failed %d  %s", p.name, p.sent, p.ok, p.failed, p.sum)
	if p.rate > 0 {
		s += fmt.Sprintf("  late p99 %.3f ms", p.lateP99())
		if !p.valid() {
			s += " INVALID (generator late)"
		}
		if p.aborted {
			s += " (stopped: over 1% missed the limit)"
		}
	}
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// openLoop sends requests on a seeded schedule at a fixed rate: dur is
// cut into n = rate*dur equal slots and one request falls due in each,
// at a seeded uniform offset within it, carrying a seeded pick of reqs.
// Unlike a Poisson stream this sends no bursts that two connections
// would queue on the client side, so latency measures the server. One
// sender per CPU, each on its own keep-alive connection, takes the next
// due request; a sender still busy when a request falls due leaves it
// waiting, and that wait counts in its latency, which runs from the due
// time to the checked answer. With limitMs > 0 the
// phase stops as soon as more than 1% of its schedule has missed the
// limit. An answer that differs from the oracle ends the phase with a
// mismatchError.
func openLoop(name string, d *deployment, cl *client, reqs []request, orc []int32,
	rate float64, dur time.Duration, limitMs float64, seed int64, tr *tracer) (*phaseResult, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(rate * dur.Seconds()))
	if n < 1 {
		n = 1
	}
	offs := make([]time.Duration, n)
	picks := make([]int, n)
	slot := float64(dur) / float64(n)
	for i := range offs {
		offs[i] = time.Duration((float64(i) + rng.Float64()) * slot)
	}
	for i := range picks {
		picks[i] = rng.Intn(len(reqs))
	}

	res := &phaseResult{name: name, rate: rate, lateLimitMs: d.w.limitMs / 2}
	var (
		next, misses  atomic.Int64
		stop, aborted atomic.Bool
		mu            sync.Mutex
		firstErr      error
		mismatch      error
		lastDone      time.Time
		wg            sync.WaitGroup
	)
	maxMisses := int64(n / 100)
	senders := runtime.NumCPU()
	cpu0 := cpuTime()
	start := time.Now().Add(time.Millisecond)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, late []float64
			sent, ok, failed, rows := 0, 0, 0, 0
			var last time.Time
			defer func() {
				mu.Lock()
				res.lat = append(res.lat, lat...)
				res.late = append(res.late, late...)
				res.sent += sent
				res.ok += ok
				res.failed += failed
				res.rows += rows
				if last.After(lastDone) {
					lastDone = last
				}
				mu.Unlock()
			}()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(offs[i])
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					late = append(late, ms(time.Since(due)))
				}
				id := tr.newID()
				req := reqs[picks[i]]
				sendAt := time.Now()
				classes, err := cl.predict(d.url, req.body, id)
				done := time.Now()
				tr.record(id, "loadgen.request", "", due, done)
				tr.record(id, "net.client", "loadgen.request", sendAt, done)
				last = done
				sent++
				if err == nil && len(classes) != len(req.rows) {
					err = fmt.Errorf("%d classes answered for %d rows", len(classes), len(req.rows))
				}
				l := ms(done.Sub(due))
				if err != nil {
					failed++
					l = math.Inf(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				} else {
					for j, row := range req.rows {
						if classes[j] != orc[row] {
							mu.Lock()
							if mismatch == nil {
								mismatch = &mismatchError{"HTTP answer", row, classes[j], orc[row], d.test[row]}
							}
							mu.Unlock()
							stop.Store(true)
							return
						}
					}
					ok++
					rows += len(req.rows)
				}
				lat = append(lat, l)
				if limitMs > 0 && l > limitMs && misses.Add(1) > maxMisses {
					aborted.Store(true)
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	res.aborted = aborted.Load()
	res.cpu = cpuTime() - cpu0
	res.span = lastDone.Sub(start)
	res.sum = summarize(res.lat)
	if mismatch != nil {
		return nil, mismatch
	}
	if firstErr != nil {
		fmt.Printf("  %s: %d failed requests, first: %v\n", name, res.failed, firstErr)
	}
	return res, nil
}

// swapper hot-swaps the served model at a fixed cadence: each swap
// installs a fresh ServedModel over the engine built at set-up, so
// answers never change while the registry's write path runs beside
// the reads.
type swapper struct {
	once sync.Once
	stop chan struct{}
	done chan struct{}
	durs []float64 // ms per ModelRegistry.Swap call
	err  error
}

func startSwapper(d *deployment, every time.Duration) *swapper {
	s := &swapper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			nm := treeexec.NewServedModel(d.w.dataset, d.engine, runtime.GOMAXPROCS(0), 0)
			t0 := time.Now()
			if err := d.reg.Swap(d.w.dataset, nm); err != nil {
				nm.Close()
				s.err = err
				return
			}
			s.durs = append(s.durs, ms(time.Since(t0)))
		}
	}()
	return s
}

// halt stops the swapper, waits for it and returns the error that
// stopped it early, if any; durs is safe to read afterwards. It may be
// called more than once.
func (s *swapper) halt() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
	if s.err != nil {
		return fmt.Errorf("hot swap: %w", s.err)
	}
	return nil
}
