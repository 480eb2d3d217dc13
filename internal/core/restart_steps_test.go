package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/rdma"
	"github.com/slash-stream/slash/internal/recovery"
)

// TestRestartStepsRejectBadNodeIDs drives every restart entry point with a
// node id outside [0, MaxNodes). The coordinator's ids come straight off the
// wire, so a bad one must come back as an error, never as a panic that takes
// the member process down.
func TestRestartStepsRejectBadNodeIDs(t *testing.T) {
	const nodes, threads = 2, 1
	rng := rand.New(rand.NewSource(13))
	recs, _ := genPhase(rng, nodes*threads, 200, 16, 0, 1000)

	local, err := NewController(recoveryConfig(nodes, threads, recovery.NewMemStore()),
		sumQuery("bad-node-local"), sliceFlowsOf(recs, threads), &Collector{})
	if err != nil {
		t.Fatalf("NewController (in-process): %v", err)
	}

	// A placement member owning node 0. Node 1 lives in a peer process,
	// stood in for by the far halves of private channels nobody polls. Each
	// call gets a fresh, frozen member: one that panics holding the
	// controller lock must not wedge the next.
	newMember := func() *Controller {
		fab := rdma.NewFabric(rdma.Config{})
		nics := make([]*rdma.NIC, nodes)
		for i := range nics {
			if nics[i], err = fab.NewNIC(fmt.Sprintf("peer%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		cfg := recoveryConfig(nodes, threads, recovery.NewMemStore())
		cfg.Placement = &Placement{
			Owned: func(id int) bool { return id == 0 },
			Link: func(src, dst int) (channel.SendPort, channel.RecvPort, error) {
				if src < 0 || src >= nodes || dst < 0 || dst >= nodes {
					return nil, nil, fmt.Errorf("no link %d->%d", src, dst)
				}
				p, r, err := channel.New(nics[src], nics[dst], channel.Config{SlotSize: ChannelSlotSize(cfg.ChunkSize)})
				if err != nil {
					return nil, nil, err
				}
				if src == 0 {
					return p, nil, nil
				}
				return nil, r, nil
			},
			OnLinkDown: func(int, int, int, int, error) {},
		}
		member, err := NewController(cfg, sumQuery("bad-node-member"), sliceFlowsOf(recs, threads), &Collector{})
		if err != nil {
			t.Fatalf("NewController (placement): %v", err)
		}
		if err := member.ClusterFreeze(true); err != nil {
			t.Fatalf("ClusterFreeze: %v", err)
		}
		return member
	}

	for _, x := range []int{-1, nodes} {
		calls := []struct {
			name string
			call func() error
		}{
			{"RestartNode", func() error { return local.RestartNode(x) }},
			{"ClusterFence", func() error { _, err := newMember().ClusterFence(x, 1); return err }},
			{"ClusterAdopt", func() error { return newMember().ClusterAdopt(x) }},
			{"ClusterRestore", func() error { _, err := newMember().ClusterRestore(x, make([]int, nodes), nil); return err }},
			{"ClusterReplay", func() error { _, err := newMember().ClusterReplay(x, nil); return err }},
		}
		for _, c := range calls {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%d) panicked: %v", c.name, x, r)
					}
				}()
				if err := c.call(); err == nil {
					t.Errorf("%s(%d) = nil, want an error", c.name, x)
				}
			}()
		}
	}
}
