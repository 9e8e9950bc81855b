package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// block is one offline Predict call's input: w.rows test rows.
type block struct {
	rows [][]float32
	idx  []int
}

// buildBlocks draws the blocks an offline workload scores: seeded
// draws of w.rows test rows each.
func buildBlocks(w workload, test [][]float32, seed int64) []block {
	rng := rand.New(rand.NewSource(seed))
	blocks := make([]block, 32)
	for i := range blocks {
		b := block{rows: make([][]float32, w.rows), idx: make([]int, w.rows)}
		for j := range b.idx {
			b.idx[j] = rng.Intn(len(test))
			b.rows[j] = test[b.idx[j]]
		}
		blocks[i] = b
	}
	return blocks
}

// closedLoop runs callers goroutines that each score blocks back to
// back through ServedModel.Predict, waiting for every reply, for dur.
// Each call's latency is its own duration; every output is checked
// against the oracle, and a differing one ends the phase with a
// mismatchError.
func closedLoop(name string, d *deployment, blocks []block, orc []int32, callers int,
	dur time.Duration, seed int64, tr *tracer) (*phaseResult, error) {
	res := &phaseResult{name: name}
	var (
		mu       sync.Mutex
		mismatch error
		stop     atomic.Bool
		wg       sync.WaitGroup
	)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		rng := rand.New(rand.NewSource(seed + int64(c)))
		go func() {
			defer wg.Done()
			out := make([]int32, 0, len(blocks[0].rows))
			var lat []float64
			sent, ok, failed, rows := 0, 0, 0, 0
			defer func() {
				mu.Lock()
				res.lat = append(res.lat, lat...)
				res.sent += sent
				res.ok += ok
				res.failed += failed
				res.rows += rows
				mu.Unlock()
			}()
			for !stop.Load() && time.Now().Before(deadline) {
				b := blocks[rng.Intn(len(blocks))]
				id := tr.newID()
				t0 := time.Now()
				got, err := d.model.Predict(b.rows, out)
				t1 := time.Now()
				tr.record(id, "treeexec.served.predict", "", t0, t1)
				sent++
				if err != nil {
					failed++
					lat = append(lat, math.Inf(1))
					continue
				}
				for j, row := range b.idx {
					if got[j] != orc[row] {
						mu.Lock()
						if mismatch == nil {
							mismatch = &mismatchError{"ServedModel.Predict output", row, got[j], orc[row], d.test[row]}
						}
						mu.Unlock()
						stop.Store(true)
						return
					}
				}
				ok++
				rows += len(b.idx)
				lat = append(lat, ms(t1.Sub(t0)))
			}
		}()
	}
	wg.Wait()
	res.cpu = cpuTime() - cpu0
	res.span = time.Since(start)
	res.sum = summarize(res.lat)
	if mismatch != nil {
		return nil, mismatch
	}
	return res, nil
}
