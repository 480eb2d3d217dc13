package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/slash-stream/slash/internal/core"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
	"github.com/slash-stream/slash/internal/workload"
)

// Load shape shared by every workload: two nodes with one source thread
// each, so the load generator is two flows — no more than the two cores of
// the reference host. Flow f is node f's only thread.
const (
	numNodes = 2
	threads  = 1
)

// heldOutSeed is never used while tuning the benchmark or a change; a claim
// made with other seeds must also hold on it.
const heldOutSeed = 6007

// pacedRate is the ysb-paced offered load in records per second across both
// flows: about a third of ysb's closed-loop throughput on the reference host.
const pacedRate = 5_000_000

// pacedWindows is how many tumbling windows one ysb-paced pass closes.
const pacedWindows = 128

// spec names a workload and fixes its size.
type spec struct {
	name    string
	records int // per flow
	paced   bool
	cluster bool
}

var specs = []spec{
	{name: "ysb", records: 1 << 20},
	{name: "ysb-paced", records: 1 << 20, paced: true},
	{name: "nb8", records: 1 << 18},
	{name: "ysb-netfab", records: 1 << 20, cluster: true},
}

func lookup(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// input is one workload's query and its pre-generated flows.
type input struct {
	spec spec
	seed int64
	q    *core.Query
	cols []*core.ColumnarFlow // per flow, cloned into every engine run
	ref  *reference
	gen  time.Duration // time spent generating and evaluating the input
}

// build generates the workload's input from seed and evaluates its reference
// result, before any timer starts.
func build(s spec, seed int64) (*input, error) {
	start := time.Now()
	var q *core.Query
	var flows [][]core.Flow
	if s.paced {
		// The standard YSB generator, with windows sized so a pass closes
		// pacedWindows of them.
		w := workload.YSB{Keys: 100_000, RecordsPerFlow: s.records, Seed: seed,
			TimeStep: 10, WindowSize: int64(s.records) * 10 / pacedWindows}
		q, flows = w.Query(), w.Flows(numNodes, threads)
	} else {
		base := "ysb"
		if s.name == "nb8" {
			base = "nb8"
		}
		var err error
		q, flows, err = workload.Build(base, numNodes, threads, s.records, seed)
		if err != nil {
			return nil, err
		}
	}
	tw, ok := q.Window.(window.Tumbling)
	if !ok {
		return nil, fmt.Errorf("%s: window %s is not tumbling", s.name, q.Window.Name())
	}
	in := &input{spec: s, seed: seed, q: q}
	recs := make([][]stream.Record, len(flows))
	for n := range flows {
		recs[n] = make([]stream.Record, 0, s.records)
		var r stream.Record
		for flows[n][0].Next(&r) {
			recs[n] = append(recs[n], r)
		}
		in.cols = append(in.cols, core.NewColumnarFlow(recs[n]))
	}
	if q.JoinSide != nil {
		in.ref = evaluate(recs, tw.Size, true, nil)
	} else {
		in.ref = evaluate(recs, tw.Size, false, ysbKeep)
	}
	in.gen = time.Since(start)
	return in, nil
}

func (in *input) total() int64 { return int64(len(in.cols)) * int64(in.spec.records) }

// stats helpers.

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// epoch anchors clock; monotonic nanoseconds since process start.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }
