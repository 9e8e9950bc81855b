package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"flint/internal/core"
	"flint/internal/treeexec"
)

// microBlockRows is the block size the per-layer Batcher and registry
// timings use when no observed shape applies: two serve lanes' worth
// of the Batcher's default 128-row blocks.
const microBlockRows = 256

// timePasses calls pass until at least budget has elapsed and at least
// five passes have run, recording one span per pass, and returns the
// median pass time divided by perPass.
func timePasses(tr *tracer, name string, budget time.Duration, perPass int, pass func()) float64 {
	var ns []float64
	start := time.Now()
	for len(ns) < 5 || time.Since(start) < budget {
		id := tr.newID()
		t0 := time.Now()
		pass()
		t1 := time.Now()
		tr.record(id, name, "", t0, t1)
		ns = append(ns, float64(t1.Sub(t0).Nanoseconds())/float64(perPass))
	}
	return median(ns)
}

// mallocsPer runs f n times and returns the heap allocations per call
// made by the whole process meanwhile.
func mallocsPer(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// checkAnswers compares an engine's outputs on the test rows with the
// oracle.
func checkAnswers(where string, d *deployment, got, orc []int32) error {
	for i := range orc {
		if got[i] != orc[i] {
			return &mismatchError{where, i, got[i], orc[i], d.test[i]}
		}
	}
	return nil
}

// kernelLayers times the engine layers below the serving path on the
// test rows, one worker, checking every output against the oracle: the
// installed engine in its calibrated mode, each arena variant freshly
// built and calibrated the same way, the Batcher the model serves
// through, the core feature encoders, and the float reference forest.
func kernelLayers(d *deployment, orc []int32, tr *tracer, m map[string]float64) error {
	const budget = 150 * time.Millisecond
	rows := d.test
	n := len(rows)
	out := make([]int32, n)

	m["treeexec.kernel.ns_per_row"] = timePasses(tr, "treeexec.kernel.predict_batch", budget, n, func() {
		d.engine.PredictBatch(rows, out, 1, 0)
	})
	if err := checkAnswers("installed engine PredictBatch", d, out, orc); err != nil {
		return err
	}
	fastest := 0.0
	for _, v := range []struct {
		variant treeexec.FlatVariant
		metric  string
	}{
		{treeexec.FlatFLInt, "treeexec.kernel.flatflint_ns_per_row"},
		{treeexec.FlatCompact, "treeexec.kernel.compact_ns_per_row"},
		{treeexec.FlatFloat32, "treeexec.kernel.float32_ns_per_row"},
	} {
		e, err := treeexec.NewFlat(d.reordered, v.variant)
		if err != nil {
			return fmt.Errorf("building %s: %w", v.variant, err)
		}
		e.CalibrateInterleaveRows(d.train, 0)
		ns := timePasses(tr, "treeexec.kernel.predict_batch."+e.Name(), budget, n, func() {
			e.PredictBatch(rows, out, 1, 0)
		})
		if err := checkAnswers(e.Name()+" PredictBatch", d, out, orc); err != nil {
			return err
		}
		m[v.metric] = ns
		if fastest == 0 || ns < fastest {
			fastest = ns
		}
	}
	m["treeexec.kernel.flint_speedup"] = m["treeexec.kernel.float32_ns_per_row"] / m["treeexec.kernel.flatflint_ns_per_row"]
	m["treeexec.variant_regret"] = m["treeexec.kernel.ns_per_row"] / fastest

	// The Batcher of the model currently serving (a serve-batch run has
	// swapped it several times).
	sm := d.model
	if d.reg != nil {
		sm, _ = d.reg.Get(d.w.dataset)
	}
	blk := rows[:min(microBlockRows, n)]
	bout := make([]int32, len(blk))
	b := sm.Batcher()
	m["treeexec.batcher.ns_per_row"] = timePasses(tr, "treeexec.batcher.predict", budget, len(blk), func() {
		b.Predict(blk, bout)
	})
	if err := checkAnswers("Batcher.Predict", d, bout, orc[:len(blk)]); err != nil {
		return err
	}
	m["treeexec.batcher.allocs_per_call"] = mallocsPer(200, func() { b.Predict(blk, bout) })

	enc := make([]int32, 0, len(rows[0]))
	m["core.encode_ns_per_row"] = timePasses(tr, "core.encode_features32", budget, n, func() {
		for _, r := range rows {
			enc = core.EncodeFeatures32(enc, r)
		}
	})
	pre := make([]uint32, 0, len(rows[0]))
	m["core.precode_ns_per_row"] = timePasses(tr, "core.precode_features32", budget, n, func() {
		for _, r := range rows {
			pre = core.PrecodeFeatures32(pre, r)
		}
	})
	m["rf.reference_ns_per_row"] = timePasses(tr, "rf.forest_predict", budget, n, func() {
		for i, r := range rows {
			out[i] = d.forest.Predict(r)
		}
	})
	m["treeexec.mode.width"] = float64(d.engine.Interleave())
	m["treeexec.arena_bytes"] = float64(d.engine.ArenaBytes())
	return nil
}

// replayRegistry replays the coalesced batch shape the lane produced
// live — fill rows per registry Predict — through ModelRegistry.Predict
// alone, and returns the median call time in µs. The spans are
// labelled as a replay.
func replayRegistry(d *deployment, orc []int32, fill float64, tr *tracer) (float64, error) {
	k := int(fill + 0.5)
	k = max(1, min(k, len(d.test)))
	rows := d.test[:k]
	out := make([]int32, k)
	var us []float64
	start := time.Now()
	for len(us) < 50 || time.Since(start) < 200*time.Millisecond {
		id := tr.newID()
		t0 := time.Now()
		got, err := d.reg.Predict(d.w.dataset, rows, out)
		t1 := time.Now()
		if err != nil {
			return 0, err
		}
		if err := checkAnswers("replayed ModelRegistry.Predict", d, got, orc[:k]); err != nil {
			return 0, err
		}
		tr.record(id, "replay.treeexec.registry.predict", "", t0, t1)
		us = append(us, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// recordWriter is a ResponseWriter that keeps the status and the body
// in a buffer grown beforehand, so recording allocates nothing.
type recordWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *recordWriter) Header() http.Header         { return w.h }
func (w *recordWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *recordWriter) WriteHeader(s int)           { w.status = s }

// handlerAllocs calls the server's handler directly, one request at a
// time, and returns the process-wide heap allocations per request: the
// serving path's own allocations, from body decode through coalescing
// and dispatch to the encoded answer. Afterwards it checks every
// call's status and answer against the oracle.
func handlerAllocs(d *deployment, reqs []request, orc []int32) (float64, error) {
	const n = 100
	h := d.srv.Handler()
	built := make([]*http.Request, n)
	ws := make([]*recordWriter, n)
	for i := range built {
		r, err := http.NewRequest(http.MethodPost, d.url, bytes.NewReader(reqs[i%len(reqs)].body))
		if err != nil {
			return 0, err
		}
		built[i] = r
		ws[i] = &recordWriter{h: make(http.Header)}
		ws[i].body.Grow(64 << 10)
	}
	i := 0
	a := mallocsPer(n, func() {
		h.ServeHTTP(ws[i], built[i])
		i++
	})
	for i, w := range ws {
		if w.status != 0 && w.status != http.StatusOK {
			return 0, fmt.Errorf("direct handler call %d answered HTTP %d", i, w.status)
		}
		var r struct {
			Classes []int32 `json:"classes"`
		}
		if err := json.Unmarshal(w.body.Bytes(), &r); err != nil {
			return 0, fmt.Errorf("direct handler call %d: decoding answer: %w", i, err)
		}
		req := reqs[i%len(reqs)]
		if len(r.Classes) != len(req.rows) {
			return 0, fmt.Errorf("direct handler call %d: %d classes answered for %d rows", i, len(r.Classes), len(req.rows))
		}
		for j, row := range req.rows {
			if r.Classes[j] != orc[row] {
				return 0, &mismatchError{"direct handler answer", row, r.Classes[j], orc[row], d.test[row]}
			}
		}
	}
	return a, nil
}

// pct returns the q-quantile of a copy of xs.
func pct(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}
