package core

import (
	"errors"
	"fmt"
	"time"
)

// This file is the restart protocol (§7.2.2): one ordered list of steps that
// fences a dead node's incarnation, restores it from its journal at the
// committed-epoch horizon, replays the survivors' rings above that horizon,
// and rejoins it. Two drivers run the list. In process, restartNodeExpect
// (recover.go) calls every step itself. In a placement deployment the
// coordinator (internal/cluster) orders the steps across processes over gob,
// and the Cluster* methods below are their entry points:
//
//	step     in-process call              coordinator message kind
//	freeze   c.freeze                     kFreeze (On)   → survivors
//	fence    c.fence                      kFence         → survivors
//	relink   inside c.restore (buildMesh) kRelink, kWire → survivors, newcomer
//	adopt    inside c.restore (linkPair)  kAdopt         → survivors
//	restore  c.restore                    kRestore       → newcomer
//	replay   c.replay                     kReplay        → survivors
//	release  c.release                    kFreeze (!On)  → every member
//
// Relink and adopt rebuild the survivors' halves of the dead node's links.
// In process the restored node's buildMesh does both, because every half is
// local; across processes the fabric re-registers its regions first
// (internal/cluster) and ClusterAdopt then wires the halves in. The in-process
// driver alone also waits for the fenced tasks to exit and tears down the dead
// incarnation's NIC, transport endpoint and state-plane directory: across
// processes all three died with the process.

// ErrNotPlacement rejects Cluster* calls on a deployment without a Placement:
// in-process deployments run the same sequence through RestartNode.
var ErrNotPlacement = errors.New("core: not a placement deployment")

// enter guards every driver entry point of the step list. The deployment must
// be the driver's kind (placement for the coordinator's Cluster* calls,
// in-process for RestartNode) with the recovery plane armed, and node x must
// be in range: the coordinator's node ids come off the wire, so they are
// checked here before any step indexes a per-node table with them.
func (c *Controller) enter(x int, placement bool) error {
	switch {
	case placement && c.cfg.Placement == nil:
		return ErrNotPlacement
	case !placement && c.cfg.Placement != nil:
		return errors.New("core: a placement deployment restarts nodes through its coordinator")
	case c.cfg.Recovery == nil:
		return errors.New("core: recovery is not configured")
	case x < 0 || x >= c.cfg.MaxNodes:
		return fmt.Errorf("core: node %d out of range", x)
	}
	return nil
}

// freeze gates the source tasks: frozen sources idle without flushing, so no
// flush targets a link mid-teardown, while merge tasks keep draining. It
// counts restarts in progress (see runState.frozen).
func (c *Controller) freeze() { c.run.frozen.Add(1) }

// release ends one freeze. It bumps the retry generation first, so flushes
// parked on a dead link retry against the rebuilt mesh once they thaw.
func (c *Controller) release() {
	c.run.retryGen.Add(1)
	c.run.frozen.Add(-1)
}

// fence severs every local survivor's links to node x, installs x's new
// incarnation, and removes x from the live set. Closing a survivor's producer
// toward x unblocks a sender spinning for credit on a channel whose far end
// will never poll again; the flush parks and retries after release. The
// inbound links from x are staged for removal ahead of any rebuilt link, so
// the merge task discards the dead incarnation's backlog first and its chunks
// can never interleave with the restart's. The rings feeding x stay for
// replay. Returns the element-wise minimum of the survivors' committed-epoch
// vectors: the horizon restore cuts x's source replay at. Sources must be
// frozen; callers hold c.mu.
func (c *Controller) fence(x, newInc int) []uint64 {
	var committed []uint64
	for _, m := range c.live {
		if m == x || c.backends[m] == nil {
			continue
		}
		if p := c.producers[m][x]; p != nil {
			p.Close()
		}
		c.producers[m][x], c.senders[m][x] = nil, nil
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
			continue
		}
		for i := range committed {
			if i < len(v) && v[i] < committed[i] {
				committed[i] = v[i]
			}
		}
	}
	c.nodeInc[x] = newInc
	c.live = removeNode(c.live, x)
	return committed
}

// restore rebuilds node x from its journal and rejoins it: buildNode with the
// journal replayed between backend and tasks (see replayJournal). The
// survivors' links to x come up inside buildMesh when they are local, or were
// adopted already when they live in other processes. Returns x's restored
// committed-epoch vector, the filter of the survivors' ring replay. Callers
// hold c.mu.
func (c *Controller) restore(x int, rs *nodeRestore) ([]uint64, error) {
	if !c.started {
		return nil, ErrNotRunning
	}
	if containsNode(c.live, x) {
		return nil, fmt.Errorf("core: node %d is already live", x)
	}
	if err := c.buildNode(x, c.flows[x], rs); err != nil {
		return nil, err
	}
	c.setPeers()
	return rs.restored, nil
}

// replay re-delivers the survivors' retained ring entries above the restored
// node's commit horizon, in order, through the rebuilt links. It runs outside
// c.mu: the posts flow against the restored merge task's draining. Horizon
// check first: an entry evicted above the horizon makes x unrecoverable and
// fails the run. Returns the number of chunks replayed.
func (c *Controller) replay(x int, restored []uint64) (int, error) {
	type replaySrc struct {
		s *chanSender
		r *replayRing
	}
	var replays []replaySrc
	c.mu.Lock()
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
		if err == nil {
			continue
		}
		if c.cfg.Placement == nil && isLinkError(err) {
			// In process, the replaying SENDER's link died mid-replay: the
			// usual cause is that the vote fenced the wrong suspect and the
			// sender is the genuinely dead node. Its restart clears its own
			// rings and re-produces every uncommitted epoch from its journal,
			// so the entries skipped here are re-sent by construction. Route
			// the report back to the failure manager and carry on. Across
			// processes the error goes back to the coordinator instead: it
			// alone decides whether the run survives.
			c.mgr.reportLink(rp.s.src, rp.s.dst, rp.s.srcInc, rp.s.dstInc, err)
			continue
		}
		return replayed, fmt.Errorf("core: ring replay to node %d: %w", x, err)
	}
	if c.mReplayed != nil {
		c.mReplayed.Add(uint64(replayed))
	}
	return replayed, nil
}

// setPeers points every local live backend's heartbeats at the live set.
// Callers hold c.mu.
func (c *Controller) setPeers() {
	for _, m := range c.live {
		if be := c.backends[m]; be != nil {
			be.SetPeers(c.live)
		}
	}
}

// recordRecovery logs one completed restart for Report and the metrics.
func (c *Controller) recordRecovery(rec Recovery) {
	c.mu.Lock()
	c.recoveries = append(c.recoveries, rec)
	c.mu.Unlock()
	if c.mRecDur != nil {
		// The registry is unitless; like every engine histogram this one
		// observes nanoseconds despite the conventional _seconds suffix.
		c.mRecDur.ObserveDuration(rec.Duration)
	}
}

// ClusterFreeze runs the freeze step (on=true) or the release step (on=false)
// on this member.
func (c *Controller) ClusterFreeze(on bool) error {
	if c.cfg.Placement == nil {
		return ErrNotPlacement
	}
	if on {
		c.freeze()
	} else {
		c.release()
	}
	return nil
}

// ClusterFence runs the fence step for dead node x on this member, which must
// be frozen. It returns the member's contribution to the cluster-wide commit
// horizon the newcomer restores to.
func (c *Controller) ClusterFence(x, newInc int) ([]uint64, error) {
	if err := c.enter(x, true); err != nil {
		return nil, err
	}
	if !c.run.isFrozen() {
		return nil, errors.New("core: ClusterFence requires a frozen member")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fence(x, newInc), nil
}

// ClusterAdopt wires the restored node x back into this member's mesh: fresh
// send halves toward x (stamped with x's new incarnation) and fresh inbound
// links from x, staged onto the merge tasks behind the fence's removals.
// Placement.Link must already resolve the rebuilt endpoints. The owned
// backends' clock entries for x's threads were never retired, so no
// re-activation is needed: x's replayed epochs advance them as the originals
// did.
func (c *Controller) ClusterAdopt(x int) error {
	if err := c.enter(x, true); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if containsNode(c.live, x) {
		return fmt.Errorf("core: node %d is already live", x)
	}
	for _, m := range c.live {
		if c.backends[m] == nil {
			continue
		}
		if _, err := c.linkPair(x, m); err != nil {
			return err
		}
	}
	c.live = append(c.live, x)
	c.setPeers()
	return nil
}

// ClusterRestore runs the restore step for owned node x on a respawned
// member. incs is the cluster's incarnation view, installed first so the
// links x builds and the chunks it stamps carry it. horizon is the
// element-wise minimum of the survivors' ClusterFence vectors. Journaled sink
// rows are re-emitted, since the member's sink died with its predecessor. The
// newcomer joins the survivors' freeze, so its sources launch gated exactly
// as a node restarted in process does; the coordinator's release thaws it
// with the rest. Returns the restored committed-epoch vector survivors filter
// their ring replay with.
func (c *Controller) ClusterRestore(x int, incs []int, horizon []uint64) ([]uint64, error) {
	if err := c.enter(x, true); err != nil {
		return nil, err
	}
	if !c.cfg.Placement.Owned(x) {
		return nil, fmt.Errorf("core: node %d is not owned by this member", x)
	}
	start := time.Now()
	c.freeze()
	c.mu.Lock()
	copy(c.nodeInc, incs)
	// oldDone stays nil: the dead process never published its run totals
	// (that happens only at FinishStream success), so every restored thread
	// republishes from its journaled counters.
	restored, err := c.restore(x, &nodeRestore{horizon: horizon})
	inc := c.nodeInc[x]
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	c.recordRecovery(Recovery{Node: x, Incarnation: inc, Duration: time.Since(start)})
	return restored, nil
}

// ClusterReplay runs the replay step toward restored node x from this
// member's rings. A sender's link error is returned to the coordinator, which
// decides whether the run survives.
func (c *Controller) ClusterReplay(x int, restored []uint64) (int, error) {
	if err := c.enter(x, true); err != nil {
		return 0, err
	}
	return c.replay(x, restored)
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
