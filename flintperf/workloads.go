package main

import (
	"math"
	"time"
)

// The model every workload serves is built with cmd/flintserve's
// defaults: 4000 synthesized rows (a 75/25 train/test split), 30 trees
// of depth 20, the "auto" arena variant, calibration on the training
// rows, and one Batcher worker per CPU. The model seed is flintserve's
// default too, so every run serves the same forest; --seed drives only
// the traffic (arrival times and which test rows each request or block
// carries).
const (
	datasetRows = 4000
	numTrees    = 30
	maxDepth    = 20
	modelSeed   = 1

	// setups is how many times a run builds the deployment from scratch.
	// setup_s and the set-up layer timings are the median over them; the
	// last one is kept and measured.
	setups = 3

	// minStepSamples is the fewest requests a max_rps ladder step sends:
	// enough to tell whether more than 1% of them missed the limit.
	minStepSamples = 1000
)

// workload is one traffic mix. Serving workloads drive the HTTP
// front-end in an open loop; offline workloads call
// ServedModel.Predict in a closed loop.
type workload struct {
	name    string
	dataset string
	serving bool
	// rows is the number of rows in each HTTP request body, or in each
	// offline Predict block.
	rows int

	// Serving only: open-loop arrival rates in requests/s, the p99
	// latency limit the max_rps ladder holds, and the ModelRegistry.Swap
	// cadence (0: no swaps). The heavy rate sits four ladder rungs
	// (about 18%) below the max_rps measured when the rates were fixed:
	// about 790 req/s for serve-single and 280 for serve-batch, on 2
	// vCPUs. A phase whose generator woke more than half the limit late
	// at its p99 measured the generator, not the server, and is invalid.
	lightRPS, heavyRPS float64
	limitMs            float64
	swapEvery          time.Duration

	// Shares of --seconds given to the light and heavy phases; serving
	// workloads give the rest to the max_rps ladder.
	lightShare, heavyShare float64
}

var workloads = []workload{
	{
		name: "serve-single", dataset: "magic", serving: true, rows: 1,
		lightRPS: 100, heavyRPS: 650, limitMs: 20,
		lightShare: 0.35, heavyShare: 0.30,
	},
	{
		name: "serve-batch", dataset: "gas", serving: true, rows: 64,
		lightRPS: 80, heavyRPS: 230, limitMs: 40,
		swapEvery:  250 * time.Millisecond,
		lightShare: 0.40, heavyShare: 0.30,
	},
	{
		name: "offline-gas", dataset: "gas", rows: 1024,
		lightShare: 0.40, heavyShare: 0.60,
	},
}

// The max_rps ladder has rungs heavyRPS * ladderRatio^k for k in
// [-ladderDown, ladderUp]: from 0.68 to 1.98 times the heavy rate. Its
// 23 rungs take a bisection starting at the heavy rung at most four
// more probes, whichever way it goes.
const (
	ladderRatio = 1.05
	ladderDown  = 8
	ladderUp    = 14
)

// ladder returns the workload's fixed max_rps ladder, ascending; the
// heavy rate is rung ladderDown.
func (w workload) ladder() []float64 {
	rungs := make([]float64, ladderDown+ladderUp+1)
	for k := range rungs {
		rungs[k] = w.heavyRPS * math.Pow(ladderRatio, float64(k-ladderDown))
	}
	return rungs
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
