package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/crdt"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/stream"
	"github.com/slash-stream/slash/internal/window"
)

// trunkConfig is smallConfig on the trunk transport: the whole mesh rides
// DefaultLanes shared QPs per node instead of per-pair channels.
func trunkConfig(nodes, threads int) Config {
	cfg := smallConfig(nodes, threads)
	cfg.Trunk = &channel.TrunkConfig{}
	return cfg
}

// TestTrunkModeSumEqualsSequential is the transport-differential test: the
// same query over the same data must produce identical window results whether
// the mesh is per-pair channels or multiplexed trunks, on both fabric
// engines — and the trunk run must have created exactly nodes×lanes QPs.
func TestTrunkModeSumEqualsSequential(t *testing.T) {
	for _, ec := range []struct {
		name string
		cfg  rdma.Config
	}{
		{"inline", rdma.Config{}},
		{"pipelined", rdma.Config{Throttle: true}},
	} {
		t.Run(ec.name, func(t *testing.T) {
			const nodes, threads = 3, 2
			rng := rand.New(rand.NewSource(42))
			flows, all := genFlows(rng, nodes, threads, 400, 37)
			win, _ := window.NewTumbling(500)
			q := &Query{Name: "trunk-sum", Codec: testCodec, Window: win, Agg: crdt.Sum{}}
			col := &Collector{}
			cfg := trunkConfig(nodes, threads)
			cfg.Fabric = ec.cfg
			ctrl, err := NewController(cfg, q, flows, col)
			if err != nil {
				t.Fatalf("NewController: %v", err)
			}
			ctrl.Start()
			rep, err := waitReport(t, ctrl)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Records != int64(len(all)) {
				t.Fatalf("records = %d, want %d", rep.Records, len(all))
			}
			checkAggAgainstOracle(t, col, oracleAgg(all, win, crdt.Sum{}, nil))
			// The whole deployment shares nodes×lanes initiator QPs: the O(n²)
			// per-pair mesh would have needed 2 QPs per directed link.
			if got, want := ctrl.Fabric().QPsCreated(), uint64(nodes*channel.DefaultLanes); got != want {
				t.Fatalf("QPs created = %d, want %d (lanes only)", got, want)
			}
		})
	}
}

// TestTrunkModeElasticScaleOut joins two nodes mid-run on the trunk
// transport: the joiners attach their own lanes, every new link is one
// logical channel, and results match the sequential oracle.
func TestTrunkModeElasticScaleOut(t *testing.T) {
	const winSize = 500
	win, _ := window.NewTumbling(winSize)
	rng := rand.New(rand.NewSource(41))
	phaseA, allA := genPhase(rng, 2, 300, 64, 0, 5*winSize)
	phaseB, allB := genPhase(rng, 4, 300, 64, 5*winSize, 10*winSize)
	q := &Query{Name: "trunk-elastic", Codec: testCodec, Window: win, Agg: crdt.Sum{}}

	cfg := trunkConfig(2, 1)
	cfg.MaxNodes = 4
	gates := []*GatedFlow{
		NewGatedFlow(append(append([]stream.Record(nil), phaseA[0]...), phaseB[0]...), 5*winSize),
		NewGatedFlow(append(append([]stream.Record(nil), phaseA[1]...), phaseB[1]...), 5*winSize),
	}
	col := &Collector{}
	c, err := NewController(cfg, q, [][]Flow{{gates[0]}, {gates[1]}}, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	c.Start()
	waitFor(t, "phase A drained", func() bool { return gates[0].AtFence(0) && gates[1].AtFence(0) })
	ids, err := c.AddNodes([][]Flow{{NewSliceFlow(phaseB[2])}, {NewSliceFlow(phaseB[3])}}, AutoCutover)
	if err != nil {
		t.Fatalf("AddNodes: %v", err)
	}
	if !reflect.DeepEqual(ids, []int{2, 3}) {
		t.Fatalf("joined ids = %v", ids)
	}
	gates[0].Open()
	gates[1].Open()
	rep, err := waitReport(t, c)
	if err != nil {
		t.Fatalf("elastic trunk run: %v", err)
	}
	if want := int64(len(allA) + len(allB)); rep.Records != want {
		t.Fatalf("records = %d, want %d", rep.Records, want)
	}
	oracle := oracleAgg(append(append([]stream.Record(nil), allA...), allB...), win, crdt.Sum{}, nil)
	checkAggAgainstOracle(t, col, oracle)
	// 4 nodes attached over the run's lifetime, lanes each — joins must not
	// have rebuilt anyone else's attachment.
	if got, want := c.Fabric().QPsCreated(), uint64(4*channel.DefaultLanes); got != want {
		t.Fatalf("QPs created = %d, want %d", got, want)
	}
}

// trunkRecoveryConfig arms the recovery plane on the trunk transport.
// SendTimeout bounds how long a sender spins for a staging slot against a
// wedged lane, the trunk's analogue of the per-pair credit timeout.
func trunkRecoveryConfig(nodes, threads int, store recovery.Store) Config {
	cfg := trunkConfig(nodes, threads)
	cfg.Trunk.SendTimeout = 500 * time.Millisecond
	cfg.Recovery = &RecoveryOptions{Store: store, CheckpointCommits: 8}
	return cfg
}

// TestTrunkModeManualRestartMatchesBaseline kills and restores a node mid-run
// on the trunk transport. The restart must rebuild only the node's endpoint
// (its lane QPs), fan no failure into the survivors' shared lanes, and leave
// the results byte-identical to a fault-free pair-transport run.
func TestTrunkModeManualRestartMatchesBaseline(t *testing.T) {
	const nodes, threads, per = 3, 2, 8000
	rng := rand.New(rand.NewSource(71))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)
	want := baselineAggs(t, "trunk-recover", recs, nodes, threads)

	cfg := trunkRecoveryConfig(nodes, threads, recovery.NewMemStore())
	col := &Collector{}
	ctrl, err := NewController(cfg, sumQuery("trunk-recover"), sliceFlowsOf(recs, threads), col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	waitFor(t, "node 1 merge progress", func() bool { return mergedChunks(ctrl, 1) > 40 })
	if err := ctrl.RestartNode(1); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	rep, err := waitReport(t, ctrl)
	if err != nil {
		t.Fatalf("run failed after restart: %v", err)
	}
	if got := aggMap(t, col); !reflect.DeepEqual(got, want) {
		t.Fatal("trunk-recovered results diverge from fault-free baseline")
	}
	if want := int64(nodes * threads * per); rep.Records != want {
		t.Fatalf("records = %d, want %d (exactly-once accounting)", rep.Records, want)
	}
	if len(rep.Recoveries) != 1 || rep.Recoveries[0].Node != 1 {
		t.Fatalf("recoveries = %+v, want one restart of node 1", rep.Recoveries)
	}
}

// TestTrunkModeAutoRestartOnIsolatedNode isolates a node's NIC on the trunk
// transport: its lane completions fail, latching its trunks (and the
// survivors' trunks to it) while every shared lane recycles and survives.
// The failure manager must vote the isolated node from the senders' reports
// alone and restore the run to the baseline result.
func TestTrunkModeAutoRestartOnIsolatedNode(t *testing.T) {
	const nodes, threads, per = 3, 2, 8000
	rng := rand.New(rand.NewSource(29))
	recs, _ := genPhase(rng, nodes*threads, per, 64, 0, 1000)
	want := baselineAggs(t, "trunk-auto", recs, nodes, threads)

	fi := rdma.NewFaultInjector(29)
	cfg := trunkRecoveryConfig(nodes, threads, recovery.NewMemStore())
	cfg.Fabric.Faults = fi
	cfg.Recovery.AutoRestart = true
	// The fence at 500 opens only after the kill, so traffic touches the
	// dead NIC however far the run got before it (see
	// TestRecoveryAutoRestartOnIsolatedNode).
	gates := make([]*GatedFlow, nodes*threads)
	flows := make([][]Flow, nodes)
	for n := range flows {
		flows[n] = make([]Flow, threads)
		for th := range flows[n] {
			gates[n*threads+th] = NewGatedFlow(recs[n*threads+th], 500)
			flows[n][th] = gates[n*threads+th]
		}
	}
	col := &Collector{}
	ctrl, err := NewController(cfg, sumQuery("trunk-auto"), flows, col)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	ctrl.Start()
	waitFor(t, "node 1 merge progress", func() bool { return mergedChunks(ctrl, 1) > 40 })
	fi.IsolateNIC("node1")
	for _, g := range gates {
		g.Open()
	}
	rep, err := waitReport(t, ctrl)
	if err != nil {
		t.Fatalf("run failed despite auto-recovery: %v", err)
	}
	if got := aggMap(t, col); !reflect.DeepEqual(got, want) {
		t.Fatal("auto-recovered trunk results diverge from fault-free baseline")
	}
	if want := int64(nodes * threads * per); rep.Records != want {
		t.Fatalf("records = %d, want %d", rep.Records, want)
	}
	restarted := false
	for _, rc := range rep.Recoveries {
		if rc.Node == 1 {
			restarted = true
		}
	}
	if !restarted {
		t.Fatalf("recoveries = %+v, want node 1 restarted", rep.Recoveries)
	}
}
