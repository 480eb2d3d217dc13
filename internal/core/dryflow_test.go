package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// TestDryFlowFlushesClosedWindows pins flush-before-park: a source whose
// flow stops at a fence, after its records crossed window ends, ships the
// closed windows before it parks. The epoch is longer than the whole input,
// so no epoch boundary would ever flush them; the windows below the fence
// must fire while every gate is still closed, and the final results must
// match the sequential reference.
func TestDryFlowFlushesClosedWindows(t *testing.T) {
	const nodes, threads, per = 2, 2, 1500
	rng := rand.New(rand.NewSource(61))
	// Phase A spans windows 0-2 of a 100-wide tumbling window; the fence at
	// 250 holds phase B back, so windows 0 and 1 are closed at the fence.
	phaseA, allA := genPhase(rng, nodes*threads, per, 64, 0, 250)
	phaseB, allB := genPhase(rng, nodes*threads, per, 64, 250, 500)
	gates := make([]*GatedFlow, nodes*threads)
	flows := make([][]Flow, nodes)
	for n := range flows {
		flows[n] = make([]Flow, threads)
		for th := range flows[n] {
			i := n*threads + th
			gates[i] = NewGatedFlow(append(append([]stream.Record(nil), phaseA[i]...), phaseB[i]...), 250)
			flows[n][th] = gates[i]
		}
	}
	win, _ := window.NewTumbling(100)
	q := &Query{Name: "dry", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
	want := oracleAgg(append(allA, allB...), win, crdt.Sum{}, nil)

	cfg := smallConfig(nodes, threads)
	cfg.EpochBytes = 1 << 30
	col := &Collector{}
	ctrl, err := NewController(cfg, q, flows, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	closed := func() bool {
		got := map[uint64]map[uint64]int64{}
		for _, r := range col.Aggs() {
			if got[r.Win] == nil {
				got[r.Win] = map[uint64]int64{}
			}
			got[r.Win][r.Key] = r.Value
		}
		return len(got[0]) == len(want[0]) && len(got[1]) == len(want[1])
	}
	waitFor(t, "closed windows emitted behind the fence", closed)
	for _, g := range gates {
		g.Open()
	}
	rep, err := waitReport(t, ctrl)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Records != int64(2*nodes*threads*per) {
		t.Fatalf("records = %d, want %d", rep.Records, 2*nodes*threads*per)
	}
	if got := aggMap(t, col); !reflect.DeepEqual(got, want) {
		t.Fatal("results diverge from the sequential reference")
	}
}
