package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/slash-stream/slash/internal/channel"
	"github.com/slash-stream/slash/internal/recovery"
	"github.com/slash-stream/slash/internal/ssb"
	"github.com/slash-stream/slash/internal/stream"
)

// This file is the controller half of the checkpoint/recovery plane. The
// division of labour:
//
//   - ssb journals what a LEADER merged (incremental checkpoints of the
//     inbound delta stream, window-trigger marks) — see internal/ssb.
//   - this file journals what a SOURCE produced (a progress mark ahead of
//     every flush), keeps per-link replay rings of everything posted into
//     the mesh, detects failed nodes from link reports, and runs the
//     fence → restore → replay → rejoin sequence.
//
// Restart correctness rests on two replay sources. The restored node's own
// past output is re-produced by re-ingesting its input flows from the last
// journaled flush boundary that committed cluster-wide: flushes serialize
// fragments in sorted order, so re-ingesting the same record ranges and
// flushing at the same journaled boundaries re-sends byte-identical epochs,
// which the leaders' epoch-commit trackers deduplicate exactly. The
// survivors' past output TO the restored node is re-delivered from the
// replay rings, filtered by the restored checkpoint's committed-epoch
// vector. Ring pruning advances only at the node's durable checkpoints, so
// an evicted entry above the restored horizon is unrecoverable by
// construction and fails the run typed (ErrUnrecoverable).

// Recovery records one completed node restart for reporting.
type Recovery struct {
	// Node is the restarted node id.
	Node int
	// Incarnation is the node's new incarnation (1 for the first restart).
	Incarnation int
	// Duration is fence-to-rejoin wall-clock time.
	Duration time.Duration
	// ReplayedChunks counts ring entries re-delivered to the restored node
	// (data chunks and heartbeats above its durable checkpoint horizon).
	ReplayedChunks int
}

// nodeJournal adapts one node's slice of the recovery store to the ssb
// Journal interface and adds the engine's own source-progress records. It
// outlives the node: a restarted incarnation keeps appending under the same
// node id with a continuous sequence, so the journal stays a single ordered
// replay log across failures.
type nodeJournal struct {
	store recovery.Store
	node  int
	// durable turns on durable emits: sink rows buffered per window are
	// journaled as a KindEmit record immediately ahead of the window's
	// trigger mark, and replay re-emits them. Only placement (multi-process)
	// deployments set it — there the sink dies with the process, so replay
	// must re-produce the lost rows; in-process restarts share one sink and
	// re-emitting would double-count.
	durable bool

	mu      sync.Mutex
	seq     uint64
	pending map[uint64][]emitRec // window -> buffered sink rows (durable only)
}

func (j *nodeJournal) append(k recovery.Kind, gen uint64, clock []int64, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(k, gen, clock, payload)
}

func (j *nodeJournal) appendLocked(k recovery.Kind, gen uint64, clock []int64, payload []byte) error {
	j.seq++
	return j.store.Append(j.node, &recovery.Record{Kind: k, Seq: j.seq, Gen: gen, Clock: clock, Payload: payload})
}

// setSeq raises the journal's sequence counter to n. Replay calls it so a
// restored incarnation keeps appending with a continuous sequence.
func (j *nodeJournal) setSeq(n uint64) {
	j.mu.Lock()
	if n > j.seq {
		j.seq = n
	}
	j.mu.Unlock()
}

// bufferEmit stages one sink row of win until the window's trigger mark is
// journaled. Rows are buffered, not appended eagerly, so the journal carries
// exactly one KindEmit record per fired window, written atomically ahead of
// its trigger mark.
func (j *nodeJournal) bufferEmit(win uint64, r emitRec) {
	j.mu.Lock()
	if j.pending == nil {
		j.pending = map[uint64][]emitRec{}
	}
	j.pending[win] = append(j.pending[win], r)
	j.mu.Unlock()
}

// Checkpoint implements ssb.Journal.
func (j *nodeJournal) Checkpoint(gen uint64, clock []int64, payload []byte) error {
	return j.append(recovery.KindCheckpoint, gen, clock, payload)
}

// Trigger implements ssb.Journal. With durable emits armed, the window's
// buffered sink rows are journaled first: a replayed KindTrigger then knows
// its rows are on record. A crash after the sink emitted but before this
// append leaves no trigger mark, so the window re-fires (and re-emits) on
// restore — lossless either way, deduplicated by the KindEmit overwrite.
func (j *nodeJournal) Trigger(gen uint64, win uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.durable {
		if rows := j.pending[win]; len(rows) > 0 {
			delete(j.pending, win)
			if err := j.appendLocked(recovery.KindEmit, gen, nil, encodeEmits(win, rows)); err != nil {
				return err
			}
		}
	}
	return j.appendLocked(recovery.KindTrigger, gen, nil, ssb.EncodeTriggerPayload(win))
}

// source appends a source-progress mark. Written AHEAD of the flush it
// describes, so even an interrupted flush leaves its boundary on record and
// replay reproduces the epoch byte-for-byte. Retries re-journal the same
// epoch with the bumped incarnation; replay keeps the last mark per epoch.
func (j *nodeJournal) source(m sourceMark) error {
	return j.append(recovery.KindSource, 0, nil, m.encode())
}

// sourceMark is one source thread's journaled flush intent.
type sourceMark struct {
	// Thread is the global thread id (vector clock slot).
	Thread int
	// Consumed is the number of records the thread had read from its flow
	// when the flush started — the replay boundary.
	Consumed int64
	// Updates is the thread's state-update count at the boundary (restored
	// into the replacement task so run totals stay exact).
	Updates int64
	// Epoch is the epoch number the flush uses.
	Epoch uint64
	// Wm is the thread watermark at the boundary.
	Wm int64
	// Inc is the incarnation the flush stamps on its chunks.
	Inc uint8
	// Done marks the stream-finishing flush (FinishStream).
	Done bool
}

const sourceMarkSize = 38

func (m sourceMark) encode() []byte {
	b := make([]byte, sourceMarkSize)
	binary.LittleEndian.PutUint32(b[0:], uint32(m.Thread))
	binary.LittleEndian.PutUint64(b[4:], uint64(m.Consumed))
	binary.LittleEndian.PutUint64(b[12:], uint64(m.Updates))
	binary.LittleEndian.PutUint64(b[20:], m.Epoch)
	binary.LittleEndian.PutUint64(b[28:], uint64(m.Wm))
	b[36] = m.Inc
	if m.Done {
		b[37] = 1
	}
	return b
}

func decodeSourceMark(p []byte) (sourceMark, error) {
	if len(p) != sourceMarkSize {
		return sourceMark{}, fmt.Errorf("core: source mark of %d bytes, want %d", len(p), sourceMarkSize)
	}
	if p[37] > 1 {
		return sourceMark{}, fmt.Errorf("core: source mark done flag %d", p[37])
	}
	return sourceMark{
		Thread:   int(binary.LittleEndian.Uint32(p[0:])),
		Consumed: int64(binary.LittleEndian.Uint64(p[4:])),
		Updates:  int64(binary.LittleEndian.Uint64(p[12:])),
		Epoch:    binary.LittleEndian.Uint64(p[20:]),
		Wm:       int64(binary.LittleEndian.Uint64(p[28:])),
		Inc:      p[36],
		Done:     p[37] != 0,
	}, nil
}

// emitRec is one journaled sink row: an aggregate value (tag 0, a=value) or a
// join cardinality pair (tag 1, a=left, b=right). The window id lives in the
// enclosing KindEmit record, one per fired window.
type emitRec struct {
	tag  uint8
	key  uint64
	a, b int64
}

const emitRecSize = 25

// encodeEmits serializes a window's sink rows: win u64 | count u32 | rows.
func encodeEmits(win uint64, rows []emitRec) []byte {
	b := make([]byte, 12+len(rows)*emitRecSize)
	binary.LittleEndian.PutUint64(b[0:], win)
	binary.LittleEndian.PutUint32(b[8:], uint32(len(rows)))
	off := 12
	for _, r := range rows {
		b[off] = r.tag
		binary.LittleEndian.PutUint64(b[off+1:], r.key)
		binary.LittleEndian.PutUint64(b[off+9:], uint64(r.a))
		binary.LittleEndian.PutUint64(b[off+17:], uint64(r.b))
		off += emitRecSize
	}
	return b
}

func decodeEmits(p []byte) (uint64, []emitRec, error) {
	if len(p) < 12 {
		return 0, nil, fmt.Errorf("core: emit record of %d bytes, want >= 12", len(p))
	}
	win := binary.LittleEndian.Uint64(p[0:])
	n := int(binary.LittleEndian.Uint32(p[8:]))
	if len(p) != 12+n*emitRecSize {
		return 0, nil, fmt.Errorf("core: emit record of %d bytes, want %d rows", len(p), n)
	}
	rows := make([]emitRec, n)
	off := 12
	for i := range rows {
		if p[off] > 1 {
			return 0, nil, fmt.Errorf("core: emit row of unknown tag %d", p[off])
		}
		rows[i] = emitRec{
			tag: p[off],
			key: binary.LittleEndian.Uint64(p[off+1:]),
			a:   int64(binary.LittleEndian.Uint64(p[off+9:])),
			b:   int64(binary.LittleEndian.Uint64(p[off+17:])),
		}
		off += emitRecSize
	}
	return win, rows, nil
}

// ringEntry is one retained post: the encoded chunk bytes plus the sender
// thread and epoch that filter replay against the restored commit horizon.
type ringEntry struct {
	thread int
	epoch  uint64
	buf    []byte
}

// replayRing retains the most recent posts of one directed link (src→dst)
// for re-delivery after dst restarts. Entries are pruned when dst writes a
// durable checkpoint (everything at or below the committed vector is folded
// into the journal) and evicted by capacity; an eviction above dst's
// restored horizon makes dst unrecoverable. The ring lives in the
// controller, not the channel, so it survives both endpoints' restarts.
type replayRing struct {
	mu      sync.Mutex
	cap     int
	head    int
	entries []ringEntry
	// evicted tracks, per sender thread, the highest epoch that fell off the
	// ring by capacity — the replay-horizon check.
	evicted map[int]uint64
}

func newReplayRing(capacity int) *replayRing {
	return &replayRing{cap: capacity, evicted: map[int]uint64{}}
}

// push retains one posted chunk (bytes are copied).
func (r *replayRing) push(thread int, epoch uint64, buf []byte) {
	cp := append([]byte(nil), buf...)
	r.mu.Lock()
	r.entries = append(r.entries, ringEntry{thread: thread, epoch: epoch, buf: cp})
	for len(r.entries)-r.head > r.cap {
		e := r.entries[r.head]
		r.entries[r.head] = ringEntry{}
		r.head++
		if e.epoch > r.evicted[e.thread] {
			r.evicted[e.thread] = e.epoch
		}
	}
	if r.head > r.cap {
		r.entries = append(r.entries[:0], r.entries[r.head:]...)
		r.head = 0
	}
	r.mu.Unlock()
}

// prune drops every entry whose epoch the receiver durably checkpointed.
// Relative order of the kept entries is preserved (FIFO replay).
func (r *replayRing) prune(committed []uint64) {
	r.mu.Lock()
	kept := make([]ringEntry, 0, len(r.entries)-r.head)
	for _, e := range r.entries[r.head:] {
		if e.thread < len(committed) && e.epoch <= committed[e.thread] {
			continue
		}
		kept = append(kept, e)
	}
	r.entries = kept
	r.head = 0
	r.mu.Unlock()
}

// dropReplayed removes the entries a restarted sender re-produces: for each
// thread in from, every entry above epoch from[thread]. An eviction above
// that epoch no longer costs anything, since the epoch is sent again.
func (r *replayRing) dropReplayed(from map[int]uint64) {
	r.mu.Lock()
	kept := make([]ringEntry, 0, len(r.entries)-r.head)
	for _, e := range r.entries[r.head:] {
		if base, ok := from[e.thread]; ok && e.epoch > base {
			continue
		}
		kept = append(kept, e)
	}
	r.entries, r.head = kept, 0
	for th, base := range from {
		if ep, ok := r.evicted[th]; ok && ep > base {
			r.evicted[th] = base
		}
	}
	r.mu.Unlock()
}

// horizonErr reports the replay-horizon check: an entry above the restored
// committed vector was evicted, so the receiver's journal is too far behind
// this ring to recover.
func (r *replayRing) horizonErr(committed []uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for th, ep := range r.evicted {
		var c uint64
		if th < len(committed) {
			c = committed[th]
		}
		if ep > c {
			return fmt.Errorf("%w: replay ring evicted epoch %d of thread %d, checkpoint horizon is %d", ErrUnrecoverable, ep, th, c)
		}
	}
	return nil
}

// replayTo re-delivers every retained entry above the restored commit
// horizon, in order, through the rebuilt link.
func (r *replayRing) replayTo(s *chanSender, committed []uint64) (int, error) {
	r.mu.Lock()
	entries := append([]ringEntry(nil), r.entries[r.head:]...)
	r.mu.Unlock()
	n := 0
	for _, e := range entries {
		if e.thread < len(committed) && e.epoch <= committed[e.thread] {
			continue
		}
		if err := s.sendEncoded(e.buf, uint32(e.thread), e.epoch); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// isLinkError reports whether err is a transport-layer link failure the
// failure manager can vote on — a dead queue pair, a closed endpoint, or a
// credit/slot wait that timed out against a non-draining peer — as opposed
// to a logic error (e.g. an oversized chunk) recovery cannot mask.
func isLinkError(err error) bool {
	if _, ok := FailedQP(err); ok {
		return true
	}
	return errors.Is(err, channel.ErrClosed) || errors.Is(err, channel.ErrCreditTimeout)
}

// linkReport is one task's observation of a dead link, stamped with the
// incarnations it was wired against so reports about already-replaced links
// can be discarded.
type linkReport struct {
	src, dst       int
	srcInc, dstInc int
	err            error
}

// recoveryMgr is the failure manager: it collects link reports, votes on
// the failed node (every broken link names it as one endpoint, so the dead
// node dominates the tally), and drives the restart. One goroutine,
// started with the deployment and drained by Wait.
type recoveryMgr struct {
	c       *Controller
	reports chan linkReport
	stopCh  chan struct{}
	doneCh  chan struct{}
	// last is the node the previous vote restarted. Ties (a two-node
	// deployment, where one broken link votes both endpoints equally) break
	// AWAY from it, so alternating attempts reach the genuinely dead node
	// within the restart budget.
	last int
}

func newRecoveryMgr(c *Controller) *recoveryMgr {
	return &recoveryMgr{
		c:       c,
		reports: make(chan linkReport, 1024),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		last:    -1,
	}
}

// reportLink routes one link failure to the manager. Non-blocking: under a
// report storm the queued burst already identifies the failure.
func (m *recoveryMgr) reportLink(src, dst, srcInc, dstInc int, err error) {
	select {
	case m.reports <- linkReport{src: src, dst: dst, srcInc: srcInc, dstInc: dstInc, err: err}:
	default:
	}
}

func (m *recoveryMgr) start() { go m.run() }

// shutdown stops the manager after it finished any in-flight restart.
func (m *recoveryMgr) shutdown() {
	select {
	case <-m.stopCh:
	default:
		close(m.stopCh)
	}
	<-m.doneCh
}

func (m *recoveryMgr) run() {
	defer close(m.doneCh)
	// Placement mode: the vote moves to the external coordinator, which sees
	// every process's reports. Forward each non-stale observation (the
	// incarnation filter still discards reports about replaced links) and
	// never fence locally — the coordinator drives the Cluster* sequence.
	var forward func(src, dst, srcInc, dstInc int, err error)
	if pl := m.c.cfg.Placement; pl != nil {
		forward = pl.OnLinkDown
	}
	for {
		select {
		case <-m.stopCh:
			return
		case r := <-m.reports:
			if m.stale(r) {
				continue
			}
			if forward != nil {
				forward(r.src, r.dst, r.srcInc, r.dstInc, r.err)
				continue
			}
			m.handle(r)
		}
	}
}

// stale reports whether a restart already replaced either endpoint's link
// incarnation since the report was generated.
func (m *recoveryMgr) stale(r linkReport) bool {
	c := m.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.src >= len(c.nodeInc) || r.dst >= len(c.nodeInc) {
		return true
	}
	return r.srcInc != c.nodeInc[r.src] || r.dstInc != c.nodeInc[r.dst]
}

// handle fences and restarts the node the report burst votes for.
func (m *recoveryMgr) handle(first linkReport) {
	c := m.c
	ro := c.cfg.Recovery
	burst := []linkReport{first}
	deadline := time.After(ro.FenceDelay)
collect:
	for {
		select {
		case r := <-m.reports:
			burst = append(burst, r)
		case <-deadline:
			break collect
		case <-m.stopCh:
			break collect
		}
	}
	// A restart in progress (manual, or racing from a previous burst) tears
	// links down on purpose; its reports look exactly like a failure until
	// the incarnation bump marks them stale. Judge only once no restart is
	// in flight.
	for c.run.isFrozen() {
		if c.run.err() != nil {
			return
		}
		select {
		case <-m.stopCh:
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
	votes := map[int]int{}
	incOf := map[int]int{}
	var cause error
	for _, r := range burst {
		if m.stale(r) {
			continue
		}
		// Both endpoints observe a broken link; only the dead node is an
		// endpoint of EVERY broken link, so it wins the tally. (A two-node
		// deployment cannot disambiguate — restarting the wrong, healthy
		// node is still safe: it restores losslessly, and the genuinely
		// dead node keeps reporting until its own turn, bounded by
		// MaxRestarts.)
		votes[r.src]++
		votes[r.dst]++
		incOf[r.src], incOf[r.dst] = r.srcInc, r.dstInc
		if cause == nil {
			cause = r.err
		}
	}
	suspect, best := -1, 0
	for n, v := range votes {
		switch {
		case v > best:
			suspect, best = n, v
		case v == best:
			if suspect == m.last || (n != m.last && n > suspect) {
				suspect = n
			}
		}
	}
	if suspect < 0 {
		return // every report was stale
	}
	m.last = suspect
	if !ro.AutoRestart {
		c.run.fail(cause)
		return
	}
	// Condition the restart on the incarnation the reports accused: if a
	// concurrent (manual) restart already replaced it, the failure is gone
	// and restarting the fresh incarnation would only lose time.
	if err := c.restartNodeExpect(suspect, incOf[suspect]); err != nil {
		return // fatal errors already failed the run inside restartNodeExpect
	}
	// Discard reports that raced the restart; a fresh one means a new
	// failure and is handled immediately.
	for {
		select {
		case r := <-m.reports:
			if !m.stale(r) {
				m.handle(r)
				return
			}
		default:
			return
		}
	}
}

// RestartNode fences node id, restores it from its journal, replays the
// survivors' rings to it, and rejoins it to the mesh: the manual entry point
// of the same sequence the failure manager runs automatically.
func (c *Controller) RestartNode(id int) error { return c.restartNodeExpect(id, -1) }

// Recoveries returns a snapshot of every completed node restart.
func (c *Controller) Recoveries() []Recovery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Recovery(nil), c.recoveries...)
}

// threadRestore is one source thread's restoration: where to rewind its
// flow, the progress counters to resume, and the journaled flush boundaries
// to replay.
type threadRestore struct {
	rewind  int64
	updates int64
	epoch   uint64
	wm      int64
	inc     uint8
	done    bool
	counted bool
	plan    []planFlush
}

// restartNodeExpect is the in-process driver of the restart step list (see
// cluster.go), conditioned on an incarnation: when expect is non-negative and
// node x's incarnation already moved past it, the request is stale (a
// concurrent restart handled the failure) and returns nil without touching
// the node. Beyond the shared steps it owns only what needs every half of the
// mesh in one process: the guards, the wait for the fenced tasks to exit, and
// the teardown of the dead incarnation's NIC, transport endpoint and
// state-plane directory. Serialized with reconfigurations via reconfigMu;
// merge tasks keep draining throughout, so restored traffic lands.
func (c *Controller) restartNodeExpect(x, expect int) error {
	if err := c.enter(x, false); err != nil {
		return err
	}
	c.freeze()
	c.reconfigMu.Lock()
	defer c.reconfigMu.Unlock()
	start := time.Now()

	c.mu.Lock()
	thaw := func(err error) error {
		c.mu.Unlock()
		c.run.frozen.Add(-1)
		return err
	}
	if !c.started {
		return thaw(ErrNotRunning)
	}
	if expect >= 0 && c.nodeInc[x] != expect {
		return thaw(nil)
	}
	if !containsNode(c.live, x) {
		return thaw(fmt.Errorf("core: node %d is not live", x))
	}
	c.restarts++
	if budget := c.cfg.Recovery.MaxRestarts; c.restarts > budget {
		err := fmt.Errorf("%w: restart budget of %d exhausted", ErrUnrecoverable, budget)
		c.run.fail(err)
		return thaw(err)
	}
	defer c.release()
	// Signal the fence: the node's tasks exit at their next step. Closing
	// every producer endpoint touching the node unblocks any sender spinning
	// for credit on a channel whose far end will never poll again.
	c.run.fenced[x].Store(true)
	for m := range c.producers {
		if p := c.producers[x][m]; p != nil {
			p.Close()
		}
		if p := c.producers[m][x]; p != nil {
			p.Close()
		}
	}
	oldName := c.nicName(x)
	sts := c.merges[x]
	oldSources := c.sources[x]
	wasRetiring := c.retiring[x]
	c.mu.Unlock()

	// Wait for the fenced tasks' workers to let go of them, and for every
	// source step that began before the freeze to end: a flush in progress
	// elsewhere would otherwise send to x through the links rebuilt below,
	// racing the ring replay. Fencing closed x's producers, so a flush
	// blocked on x has failed by now.
	deadline := time.Now().Add(5 * time.Second)
	for {
		exited := sts == nil || sts.exited.Load()
		for _, st := range oldSources {
			if !st.exited.Load() && !st.done.Load() {
				exited = false
			}
		}
		if exited && !c.sourceStepping() {
			break
		}
		if err := c.run.err(); err != nil {
			return err // the run died under the restart (e.g. journal failure)
		}
		if time.Now().After(deadline) {
			err := fmt.Errorf("%w: node %d tasks did not exit after fencing, or source steps did not drain", ErrUnrecoverable, x)
			c.run.fail(err)
			return err
		}
		time.Sleep(50 * time.Microsecond)
	}

	oldDone := make([]bool, len(oldSources))
	for i, st := range oldSources {
		oldDone[i] = st.done.Load()
	}

	c.mu.Lock()
	horizon := c.fence(x, c.nodeInc[x]+1)
	// Tear down the dead incarnation's own half of the mesh.
	for _, e := range c.consumers[x] {
		e.cons.Close()
	}
	c.consumers[x] = nil
	for m := range c.producers {
		c.producers[x][m], c.senders[x][m] = nil, nil
		c.producers[m][x], c.senders[m][x] = nil, nil
	}
	// The dead NIC's counters would vanish with it; fold them into the
	// run-level accumulators the final Report reads.
	if nic := c.nics[x]; nic != nil {
		s := nic.Stats()
		c.deadTx += s.TxBytes
		c.deadMsgs += s.TxMsgs
		c.nics[x] = nil
	}
	// Detach the dead incarnation from the transport first: its trunk
	// endpoint (when trunking) closes, completing survivors' in-flight
	// frames to it with teardown semantics instead of poisoning shared
	// lanes, and every survivor forgets its trunk to the old name.
	c.transport.DropNode(x)
	// Fence the dead incarnation's snapshot directory before its NIC goes:
	// state readers observe the fence word (or a deregistered region), drop
	// their cached endpoint, and re-resolve to the incarnation buildMesh is
	// about to install. They never see pre-crash state as current.
	if c.stateReg != nil {
		c.stateReg.Fence(x)
	}
	// Fence at the fabric: the old name can never be reconnected, and any
	// injector fault state keyed on it stays with the dead incarnation.
	c.fabric.RemoveNIC(oldName)
	// Unfence before the replacement tasks are born.
	c.run.fenced[x].Store(false)
	restored, err := c.restore(x, &nodeRestore{horizon: horizon, oldDone: oldDone, retiring: wasRetiring})
	c.mu.Unlock()
	if err != nil {
		c.run.fail(err)
		return err
	}

	replayed, err := c.replay(x, restored)
	if err != nil {
		c.run.fail(err)
		return err
	}
	c.recordRecovery(Recovery{Node: x, Incarnation: c.nodeInc[x], Duration: time.Since(start), ReplayedChunks: replayed})
	return nil
}

// sourceStepping reports whether any source task is inside a step.
func (c *Controller) sourceStepping() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, sts := range c.sources {
		for _, st := range sts {
			if st.stepping.Load() {
				return true
			}
		}
	}
	return false
}

// nodeRestore is what restoring a node adds to a fresh bring-up (buildNode).
type nodeRestore struct {
	// horizon is the element-wise minimum of the survivors' committed-epoch
	// vectors, as the fence step returned it. The node's source replay
	// rewinds to the last flush boundary committed there and in its own
	// restored vector.
	horizon []uint64
	// oldDone marks the dead incarnation's source threads that already
	// published their run totals; nil when none did.
	oldDone []bool
	// retiring re-arms the early exit of a node that died while draining out
	// of the membership.
	retiring *retireBatch
	// restored receives the restored committed-epoch vector.
	restored []uint64
}

// replayJournal is what buildNode adds to restore node x: it replays x's
// journal into the fresh backend and plans its sources' replay. Records replay
// in order: checkpoints merge their staged deltas and fast-forward tracker and
// clock; trigger marks re-mark fired windows. In process they do not re-emit,
// since the shared sink already holds the rows; with durable emits armed they
// re-emit the journaled KindEmit rows, since the dead process's sink is gone.
// Source marks become the per-thread replay plans (buildPlans), and x's own
// outbound rings drop the epochs those plans re-produce.
func (c *Controller) replayJournal(x int, be *ssb.Backend, rs *nodeRestore) ([]*threadRestore, error) {
	recs, err := c.cfg.Recovery.Store.Load(x)
	if err != nil {
		return nil, err
	}
	durable := c.cfg.Recovery.DurableEmits
	var marks []sourceMark
	// Stash of journaled sink rows keyed by window: overwriting on a repeat
	// KindEmit (a pre-crash restart replayed the window too) deduplicates.
	var stashed map[uint64][]emitRec
	for i := range recs {
		rec := &recs[i]
		switch rec.Kind {
		case recovery.KindCheckpoint:
			if err := be.RestoreCheckpoint(rec.Clock, rec.Payload); err != nil {
				return nil, err
			}
		case recovery.KindTrigger:
			win, err := ssb.DecodeTriggerPayload(rec.Payload)
			if err != nil {
				return nil, err
			}
			if durable {
				for _, r := range stashed[win] {
					if r.tag == 0 {
						c.run.sink.EmitAgg(x, win, r.key, r.a)
					} else {
						c.run.sink.EmitJoin(x, win, r.key, int(r.a), int(r.b))
					}
				}
				delete(stashed, win)
			}
			if err := be.RestoreTrigger(win); err != nil {
				return nil, err
			}
		case recovery.KindEmit:
			win, rows, err := decodeEmits(rec.Payload)
			if err != nil {
				return nil, err
			}
			if durable {
				if stashed == nil {
					stashed = map[uint64][]emitRec{}
				}
				stashed[win] = rows
			}
		case recovery.KindSource:
			m, err := decodeSourceMark(rec.Payload)
			if err != nil {
				return nil, err
			}
			marks = append(marks, m)
		default:
			return nil, fmt.Errorf("core: journal record of unknown kind %d", rec.Kind)
		}
	}
	// A stale KindEmit stash (trigger append lost to the crash) is dropped:
	// the window never marked fired, so the restored backend re-fires it and
	// journals a fresh KindEmit then.
	if n := len(recs); n > 0 && c.journals != nil {
		c.journals[x].setSeq(recs[n-1].Seq)
	}
	be.FinishRestore()
	rs.restored = be.CommittedEpochs()
	plans := c.buildPlans(x, marks, rs)
	// The node's own outbound rings drop what its replay plans re-produce,
	// which would only duplicate epochs in the ring. The rest stays: every
	// live receiver merged it, but one that fails later restores only its
	// last checkpoint and may need it again.
	replayFrom := map[int]uint64{}
	for th, pr := range plans {
		if !pr.done {
			replayFrom[x*c.cfg.ThreadsPerNode+th] = pr.epoch
		}
	}
	for _, r := range c.rings[x] {
		if r != nil {
			r.dropReplayed(replayFrom)
		}
	}
	return plans, nil
}

// buildPlans turns node x's journaled source marks into per-thread replay
// plans. The rewind point per thread is the last flush boundary whose epoch
// is committed at EVERY live backend: the restored one (rs.restored) and the
// survivors (rs.horizon). Epochs at or below it need no re-send; everything
// above is re-produced by re-ingesting from the boundary and flushing at the
// journaled boundaries.
func (c *Controller) buildPlans(x int, marks []sourceMark, rs *nodeRestore) []*threadRestore {
	tpn := c.cfg.ThreadsPerNode
	committedMin := func(gtid int) uint64 {
		eMin := uint64(math.MaxUint64)
		for _, v := range [][]uint64{rs.restored, rs.horizon} {
			if gtid < len(v) && v[gtid] < eMin {
				eMin = v[gtid]
			}
		}
		if eMin == uint64(math.MaxUint64) {
			eMin = 0
		}
		return eMin
	}
	plans := make([]*threadRestore, tpn)
	for th := 0; th < tpn; th++ {
		gtid := x*tpn + th
		// Last mark per epoch wins: flush retries and earlier incarnations
		// re-journal an epoch's boundary verbatim with a bumped incarnation.
		byEpoch := map[uint64]sourceMark{}
		maxInc := uint8(0)
		for _, mk := range marks {
			if mk.Thread != gtid {
				continue
			}
			byEpoch[mk.Epoch] = mk
			if mk.Inc > maxInc {
				maxInc = mk.Inc
			}
		}
		epochs := make([]uint64, 0, len(byEpoch))
		for e := range byEpoch {
			epochs = append(epochs, e)
		}
		sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })

		eMin := committedMin(gtid)
		r := &threadRestore{wm: int64(stream.NoWatermark), inc: maxInc + 1}
		if th < len(rs.oldDone) {
			r.counted = rs.oldDone[th]
		}
		cut := -1
		for i, e := range epochs {
			if e <= eMin {
				cut = i
			}
		}
		if cut >= 0 {
			base := byEpoch[epochs[cut]]
			r.rewind = base.Consumed
			r.updates = base.Updates
			r.epoch = base.Epoch
			r.wm = base.Wm
			r.done = base.Done
		}
		for _, e := range epochs[cut+1:] {
			mk := byEpoch[e]
			r.plan = append(r.plan, planFlush{consumed: mk.Consumed, done: mk.Done})
		}
		plans[th] = r
	}
	return plans
}

// onCheckpoint receives a node's durable commit vector after a periodic
// checkpoint and prunes every ring feeding it: entries at or below the
// vector are folded into the journal and need never replay.
func (c *Controller) onCheckpoint(node int, committed []uint64) {
	for src := range c.rings {
		if r := c.rings[src][node]; r != nil {
			r.prune(committed)
		}
	}
	if c.mCkpts != nil {
		c.mCkpts.Inc()
	}
}

func containsNode(set []int, n int) bool {
	for _, m := range set {
		if m == n {
			return true
		}
	}
	return false
}

// removeNode returns set without n, in a fresh slice: readers may still hold
// the old one.
func removeNode(set []int, n int) []int {
	out := set[:0:0]
	for _, m := range set {
		if m != n {
			out = append(out, m)
		}
	}
	return out
}
