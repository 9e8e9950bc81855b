package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"flint/internal/cags"
	"flint/internal/cart"
	"flint/internal/dataset"
	"flint/internal/rf"
	"flint/internal/serve"
	"flint/internal/treeexec"
)

// modeRecord is the serving mode calibration installed on one set-up.
type modeRecord struct {
	Variant string
	Width   int
	Kernel  string
	Source  string
}

func (m modeRecord) String() string {
	return fmt.Sprintf("%s x%d %s (calibration: %s)", m.Variant, m.Width, m.Kernel, m.Source)
}

// setupTimes are one set-up's layer timings.
type setupTimes struct {
	total, generate, train, build, calibrate time.Duration
}

// deployment is what one set-up builds: the model the workload drives,
// the independent oracle it is checked against, and for serving
// workloads the registry and HTTP server in front of it.
type deployment struct {
	w           workload
	train, test [][]float32
	forest      *rf.Forest // as trained, before serving reorders it: the oracle
	reordered   *rf.Forest
	engine      *treeexec.FlatForestEngine
	model       *treeexec.ServedModel
	reg         *treeexec.ModelRegistry
	srv         *serve.Server
	hs          *http.Server
	served      sync.WaitGroup
	url         string
	times       setupTimes
	mode        modeRecord
}

// mismatchError reports an answer that differs from the oracle.
type mismatchError struct {
	where     string
	row       int
	got, want int32
	features  []float32
}

func (e *mismatchError) Error() string {
	return fmt.Sprintf("%s: test row %d answered class %d, oracle rf.Forest.Predict says %d (features %v)",
		e.where, e.row, e.got, e.want, e.features)
}

// setUp builds the deployment the way cmd/flintserve does: generate,
// train, reorder, compile the auto variant, calibrate on the training
// rows, wrap in a ServedModel and, for serving workloads, register it
// and start the HTTP front-end on a loopback port. Its total time runs
// until the first answer has been checked against the oracle.
func setUp(w workload, tr *tracer, cl *client) (*deployment, error) {
	id := tr.newID()
	t0 := time.Now()
	d := &deployment{w: w}
	timed := func(name string, dst *time.Duration, f func() error) error {
		s := time.Now()
		err := f()
		e := time.Now()
		if dst != nil {
			*dst = e.Sub(s)
		}
		tr.record(id, name, "setup", s, e)
		return err
	}
	var full *dataset.Dataset
	err := timed("dataset.generate", &d.times.generate, func() (err error) {
		full, err = dataset.Generate(w.dataset, datasetRows, modelSeed)
		return err
	})
	if err != nil {
		return nil, err
	}
	train, test := full.Split(0.75, modelSeed)
	d.train, d.test = train.Features, test.Features
	err = timed("cart.train", &d.times.train, func() (err error) {
		d.forest, err = cart.TrainForest(train, cart.Config{NumTrees: numTrees, MaxDepth: maxDepth, Seed: modelSeed})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = timed("cags.reorder", nil, func() (err error) {
		d.reordered, err = cags.ReorderForest(d.forest)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = timed("treeexec.build", &d.times.build, func() (err error) {
		variant := treeexec.FlatFLInt
		if ok, _ := treeexec.Compactable(d.reordered); ok {
			variant = treeexec.FlatCompact
		}
		d.engine, err = treeexec.NewFlat(d.reordered, variant)
		return err
	})
	if err != nil {
		return nil, err
	}
	_ = timed("treeexec.calibrate", &d.times.calibrate, func() error {
		d.engine.CalibrateInterleaveRows(d.train, 0)
		return nil
	})
	d.mode = modeRecord{d.engine.Name(), d.engine.Interleave(), d.engine.Kernel().String(), d.engine.CalibrationSource()}
	d.model = treeexec.NewServedModel(w.dataset, d.engine, runtime.GOMAXPROCS(0), 0)

	first := 0
	want := d.forest.Predict(d.test[first])
	if w.serving {
		if err := timed("serve.up", nil, func() error { return d.startServer(tr) }); err != nil {
			d.tearDown()
			return nil, err
		}
		var got []int32
		err = timed("net.first_request", nil, func() (err error) {
			got, err = cl.predict(d.url, rowBody([][]float32{d.test[first]}), 0)
			return err
		})
		if err == nil && len(got) != 1 {
			err = fmt.Errorf("first request: %d classes for 1 row", len(got))
		}
		if err != nil {
			d.tearDown()
			return nil, err
		}
		if got[0] != want {
			d.tearDown()
			return nil, &mismatchError{"set-up HTTP answer", first, got[0], want, d.test[first]}
		}
	} else {
		got, err := d.model.Predict(d.test[first:first+1], nil)
		if err != nil {
			d.tearDown()
			return nil, err
		}
		if got[0] != want {
			d.tearDown()
			return nil, &mismatchError{"set-up Predict answer", first, got[0], want, d.test[first]}
		}
	}
	t1 := time.Now()
	d.times.total = t1.Sub(t0)
	tr.record(id, "setup", "", t0, t1)
	return d, nil
}

// startServer registers the model and serves it with the default
// serve.Config on a loopback port. A traced run wraps the handler in
// middleware that records the server-side span of each request.
func (d *deployment) startServer(tr *tracer) error {
	d.reg = treeexec.NewModelRegistry()
	if err := d.reg.Register(d.model); err != nil {
		return err
	}
	d.srv = serve.New(d.reg, serve.Config{})
	h := d.srv.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.url = "http://" + ln.Addr().String() + "/v1/models/" + d.w.dataset + ":predict"
	d.served.Add(1)
	go func() {
		defer d.served.Done()
		if err := d.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			panic(fmt.Sprintf("flintperf: HTTP server: %v", err))
		}
	}()
	return nil
}

// tearDown stops the HTTP server and drains the model.
func (d *deployment) tearDown() {
	if d.hs != nil {
		d.hs.Close()
		d.served.Wait()
		d.srv.Close()
	}
	if d.reg != nil {
		d.reg.Close()
	}
	if d.model != nil {
		d.model.Close() // a no-op when the registry already closed it
	}
}

// oracle answers every test row with the trained forest's own
// float-comparison Predict: an implementation independent of the arena
// engines and the serving path under test.
func oracle(f *rf.Forest, rows [][]float32) []int32 {
	out := make([]int32, len(rows))
	for i, r := range rows {
		out[i] = f.Predict(r)
	}
	return out
}
