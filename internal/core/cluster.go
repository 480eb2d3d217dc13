package core

import (
	"errors"
	"fmt"
	"time"
)

// This file is the placement-mode half of the recovery plane: the primitives
// an external control plane (internal/cluster) composes into the same
// fence → restore → replay → rejoin sequence restartNode runs in-process.
// Each method is one step, executed by the process that owns the relevant
// nodes; the coordinator orders the steps across processes:
//
//	survivors:  ClusterFreeze(true) → ClusterFence → [relink] → ClusterAdopt
//	newcomer:   ClusterSetIncarnation* → ClusterRestore
//	survivors:  ClusterReplay → ClusterFreeze(false)
//
// The incarnation bump, the positional dedup, and the committed-epoch
// horizons work exactly as in-process; only the vote and the ordering moved
// out of the process.

// ErrNotPlacement rejects Cluster* calls on a deployment without a Placement:
// in-process deployments run the same sequence through RestartNode.
var ErrNotPlacement = errors.New("core: not a placement deployment")

// ClusterFreeze gates (on=true) or releases (on=false) the member's source
// tasks. Frozen sources idle without flushing, so no flush targets a link
// mid-teardown; releasing bumps the retry generation so flushes parked on a
// dead link retry against the rebuilt mesh.
func (c *Controller) ClusterFreeze(on bool) error {
	if c.cfg.Placement == nil {
		return ErrNotPlacement
	}
	if on {
		c.run.frozen.Store(1)
		return nil
	}
	c.run.frozen.Store(0)
	c.run.retryGen.Add(1)
	return nil
}

// ClusterFence severs this member's links to dead node x, installs x's new
// incarnation, and removes x from the live set. It returns the element-wise
// minimum of the owned backends' committed-epoch vectors — the member's
// contribution to the cluster-wide commit horizon the newcomer restores to.
// The member must be frozen; the rings feeding x are kept for ClusterReplay.
func (c *Controller) ClusterFence(x, newInc int) ([]uint64, error) {
	if c.cfg.Placement == nil {
		return nil, ErrNotPlacement
	}
	if !c.run.isFrozen() {
		return nil, errors.New("core: ClusterFence requires a frozen member")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if x < 0 || x >= c.cfg.MaxNodes {
		return nil, fmt.Errorf("core: node %d out of range", x)
	}
	var committed []uint64
	for _, m := range c.live {
		if m == x || c.backends[m] == nil {
			continue
		}
		// Closing the producer unblocks a sender spinning for credit on a
		// channel whose far end will never poll again; the flush parks and
		// retries once the unfreeze bumps the retry generation.
		if p := c.producers[m][x]; p != nil {
			p.Close()
		}
		c.producers[m][x], c.senders[m][x] = nil, nil
		// Stage the dead link's removal: the merge task discards its backlog
		// and closes it before adopting the rebuilt link, so the dead
		// incarnation's chunks can never interleave with the restart's.
		kept := c.consumers[m][:0]
		for _, e := range c.consumers[m] {
			if e.src == x {
				c.merges[m].RemoveInbound(e.cons)
			} else {
				kept = append(kept, e)
			}
		}
		c.consumers[m] = kept
		v := c.backends[m].CommittedEpochs()
		if committed == nil {
			committed = append([]uint64(nil), v...)
		} else {
			for i := range committed {
				if i < len(v) && v[i] < committed[i] {
					committed[i] = v[i]
				}
			}
		}
	}
	c.nodeInc[x] = newInc
	liveNow := c.live[:0:0]
	for _, m := range c.live {
		if m != x {
			liveNow = append(liveNow, m)
		}
	}
	c.live = liveNow
	return committed, nil
}

// ClusterSetIncarnation installs node's incarnation as distributed by the
// coordinator. A respawned member calls it for every node before
// ClusterRestore, so the links it builds and the chunks it stamps carry the
// cluster's current incarnation view.
func (c *Controller) ClusterSetIncarnation(node, inc int) error {
	if c.cfg.Placement == nil {
		return ErrNotPlacement
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if node < 0 || node >= c.cfg.MaxNodes {
		return fmt.Errorf("core: node %d out of range", node)
	}
	c.nodeInc[node] = inc
	return nil
}

// ClusterAdopt wires the restored node x back into this member's mesh: fresh
// send halves toward x (stamped with x's new incarnation) and fresh inbound
// links from x, staged onto the merge tasks behind the fence's removals.
// Placement.Link must already resolve the rebuilt endpoints. The owned
// backends' clock entries for x's threads were never retired, so no
// re-activation is needed — x's replayed epochs advance them as the originals
// did.
func (c *Controller) ClusterAdopt(x int) error {
	if c.cfg.Placement == nil {
		return ErrNotPlacement
	}
	pl := c.cfg.Placement
	c.mu.Lock()
	defer c.mu.Unlock()
	if containsNode(c.live, x) {
		return fmt.Errorf("core: node %d is already live", x)
	}
	for _, m := range c.live {
		if c.backends[m] == nil {
			continue
		}
		s, _, err := pl.Link(m, x)
		if err != nil {
			return fmt.Errorf("core: channel %d->%d: %w", m, x, err)
		}
		c.producers[m][x] = s
		c.senders[m][x] = c.newSender(m, x, s)
		c.backends[m].SetSender(x, c.senders[m][x])
		_, r, err := pl.Link(x, m)
		if err != nil {
			return fmt.Errorf("core: channel %d->%d: %w", x, m, err)
		}
		c.consumers[m] = append(c.consumers[m], consEntry{src: x, cons: r})
		c.merges[m].AddInbound(inbound{src: x, inc: c.nodeInc[x], cons: r})
	}
	c.live = append(c.live, x)
	for _, m := range c.live {
		if c.backends[m] != nil {
			c.backends[m].SetPeers(c.live)
		}
	}
	return nil
}

// ClusterRestore rebuilds owned node x from its journal on a respawned
// member: mesh bring-up, checkpoint and trigger replay (re-emitting journaled
// sink rows — the member's sink died with its predecessor), and source replay
// plans cut at the cluster-wide commit horizon. peerCommitted is the
// element-wise minimum of the survivors' ClusterFence vectors; the restored
// member's own journaled vector joins the minimum here. Returns the restored
// committed-epoch vector survivors filter their ring replay with.
func (c *Controller) ClusterRestore(x int, peerCommitted []uint64) ([]uint64, error) {
	if c.cfg.Placement == nil {
		return nil, ErrNotPlacement
	}
	if c.cfg.Recovery == nil {
		return nil, errors.New("core: recovery is not configured")
	}
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started {
		return nil, ErrNotRunning
	}
	if containsNode(c.live, x) {
		return nil, fmt.Errorf("core: node %d is already live", x)
	}
	if !c.cfg.Placement.Owned(x) {
		return nil, fmt.Errorf("core: node %d is not owned by this member", x)
	}
	be, myIn, err := c.buildMesh(x)
	if err != nil {
		return nil, err
	}
	c.activateNode(x, be)
	marks, err := c.replayJournal(x, be)
	if err != nil {
		return nil, fmt.Errorf("%w: node %d journal replay: %v", ErrUnrecoverable, x, err)
	}
	be.FinishRestore()
	restored := be.CommittedEpochs()
	// oldDone is nil on purpose: the dead process never published its run
	// totals (publication happens only at FinishStream success), so every
	// restored thread republishes from its journaled counters.
	plans, err := c.buildPlans(x, marks, restored, nil, [][]uint64{peerCommitted})
	if err != nil {
		return nil, err
	}
	if err := c.makeTasks(x, be, myIn, c.flows[x], plans); err != nil {
		return nil, err
	}
	c.launchNode(x)
	c.live = append(c.live, x)
	for _, m := range c.live {
		if c.backends[m] != nil {
			c.backends[m].SetPeers(c.live)
		}
	}
	c.restarts++
	c.recoveries = append(c.recoveries, Recovery{
		Node:        x,
		Incarnation: c.nodeInc[x],
		Duration:    time.Since(start),
	})
	return restored, nil
}

// ClusterReplay re-delivers this member's retained ring entries above the
// restored node's commit horizon, in order, through the links ClusterAdopt
// rebuilt. Horizon check first: an evicted entry above the horizon makes the
// restored node unrecoverable. Returns the number of chunks replayed.
func (c *Controller) ClusterReplay(x int, restored []uint64) (int, error) {
	if c.cfg.Placement == nil {
		return 0, ErrNotPlacement
	}
	c.mu.Lock()
	type replaySrc struct {
		s *chanSender
		r *replayRing
	}
	var replays []replaySrc
	for _, m := range c.live {
		if m == x || c.backends[m] == nil {
			continue
		}
		if s, r := c.senders[m][x], c.rings[m][x]; s != nil && r != nil {
			replays = append(replays, replaySrc{s, r})
		}
	}
	c.mu.Unlock()
	for _, rp := range replays {
		if err := rp.r.horizonErr(restored); err != nil {
			c.run.fail(err)
			return 0, err
		}
	}
	replayed := 0
	for _, rp := range replays {
		n, err := rp.r.replayTo(rp.s, restored)
		replayed += n
		if err != nil {
			// A nested failure mid-restart: surface it to the coordinator
			// instead of voting locally — it decides whether to retry the
			// whole sequence or fail the run.
			return replayed, fmt.Errorf("core: ring replay to node %d: %w", x, err)
		}
	}
	if c.mReplayed != nil {
		c.mReplayed.Add(uint64(replayed))
	}
	return replayed, nil
}

// ClusterAbort fails the member's run with err: the coordinator observed a
// fatal cluster condition (or a test is killing this in-process member) and
// every task must stop. Idempotent; the first failure wins.
func (c *Controller) ClusterAbort(err error) {
	if err == nil {
		err = errors.New("core: cluster aborted")
	}
	c.run.fail(err)
}
