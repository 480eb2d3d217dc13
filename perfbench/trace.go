package main

import (
	"fmt"
	"time"

	"github.com/slash-stream/slash/internal/ssb"
)

// traced is the --trace 1 run. For two thirds of the time it alternates
// untraced runs with runs under the wrappers of (a) — timed flows and channel
// ports, the engine's metrics registry, the timed recovery store — and for
// the last third it runs the layer replay of (b). The per-layer table and the
// reconciliation come from these; the end-to-end metrics never do.
func traced(in *input, d time.Duration) result {
	res := result{Correct: true}
	warm, runs := measure(in, 2*d/3, false, true)
	plain, wrapped := runs[0], runs[1]
	tally(&res, "untraced", warm[0], plain)
	tally(&res, "traced", warm[1], wrapped)
	rp, err := runReplays(in, d/3)
	res.Attempted++
	if err != nil {
		res.Failed++
		res.Correct = false
		fmt.Printf("# replay FAILED: %v\n", err)
		rp = &replayResult{} // its metrics print as 0
	}
	ok, okPlain := good(wrapped), good(plain)

	m := map[string]float64{}
	perRec := func(f func(p pass) float64) float64 {
		return medianOf(ok, func(p pass) float64 { return f(p) / float64(p.records) })
	}
	m["core.emit_rows"] = medianOf(ok, func(p pass) float64 { return float64(p.rows) })
	m["trace.cpu_ns_per_rec"] = perRec(func(p pass) float64 { return float64(p.cpu.Nanoseconds()) })
	m["trace.overhead_frac"] = 1 - medianOf(ok, rate)/medianOf(okPlain, rate)

	if in.spec.cluster {
		m["cluster.bootstrap_s"] = medianOf(ok, func(p pass) float64 { return p.setup.Seconds() })
		m["cluster.finish_s"] = medianOf(ok, func(p pass) float64 { return p.finish.Seconds() })
		m["recovery.append_ns_per_rec"] = perRec(func(p pass) float64 { return float64(p.journal.appendNs) })
		m["recovery.journal_bytes_per_rec"] = perRec(func(p pass) float64 { return float64(p.journal.bytes) })
		m["recovery.appends"] = medianOf(ok, func(p pass) float64 { return float64(p.journal.appends) })
	} else {
		engineMetrics(m, ok)
	}
	if in.spec.paced {
		var late []float64
		backlog := 0
		for _, p := range good(plain) {
			late = append(late, p.late...)
			backlog = max(backlog, p.backlogMax)
		}
		m["workload.pacer_late_p99_ms"] = quantile(late, 0.99)
		m["workload.pacer_backlog_max_rec"] = float64(backlog)
	}

	R := float64(rp.records)
	chunks := float64(rp.chunks)
	m["core.ops_ns_per_rec"] = float64(rp.opsNs) / R
	m["window.assign_ns_per_rec"] = float64(rp.assignNs) / R
	m["ssb.update_ns_per_rec"] = float64(rp.updateNs) / R
	m["ssb.state_bytes_peak"] = float64(rp.stateBytesPeak)
	m["ssb.flush_ns_per_rec"] = float64(rp.flushNs) / R
	m["ssb.recs_per_flush"] = R / float64(rp.flushes)
	m["ssb.chunk_encode_ns"] = float64(rp.encodeNs) / chunks
	m["ssb.chunk_decode_ns"] = float64(rp.decodeNs) / chunks
	m["ssb.chunk_fill_frac"] = float64(rp.payloadBytes) / (float64(rp.dataChunks) * ssb.DefaultChunkSize)
	m["ssb.shipped_bytes_per_rec"] = float64(rp.remoteBytes) / R
	m["ssb.merge_ns_per_chunk"] = float64(rp.mergeNs) / chunks
	m["ssb.merge_ns_per_rec"] = float64(rp.mergeNs) / R
	m["ssb.trigger_ns_per_row"] = float64(rp.triggerNs) / float64(rp.rows)
	m["ssb.trigger_ns_per_rec"] = float64(rp.triggerNs) / R
	m["channel.transfer_ns_per_chunk"] = float64(rp.inlineNs) / float64(rp.transferred)
	m["netfab.transfer_ns_per_chunk"] = float64(rp.netfabNs) / float64(rp.transferred)
	m["netfab.allocs_per_chunk"] = float64(rp.netfabMallocs) / float64(rp.transferred)

	// Reconciliation: the layers on the workload's critical path, in ns per
	// input record, against the traced run's process CPU per record.
	remote := float64(rp.remoteChunks) / R
	codec := float64(rp.encodeRemoteNs+rp.decodeRemoteNs) / R
	type stage struct {
		name string
		ns   float64
		sum  bool // on the workload's critical path
	}
	stages := []stage{
		{"source batch step (flow fill + operators + window assign)",
			m["core.flow_fill_ns_per_rec"] + m["core.ops_ns_per_rec"] + m["window.assign_ns_per_rec"], true},
		{"SSB update", m["ssb.update_ns_per_rec"], true},
		{"SSB flush (fragment serialisation)", m["ssb.flush_ns_per_rec"], true},
		{"chunk codec (cross-node chunks)", codec, true},
		{"channel transfer (inline fabric)", m["channel.transfer_ns_per_chunk"] * remote, !in.spec.cluster},
		{"verbs post (within channel transfer; traced engine)", m["channel.post_ns_per_slot"] * m["channel.slots"] / float64(in.total()), false},
		{"netfab wire", m["netfab.transfer_ns_per_chunk"] * remote, in.spec.cluster},
		{"merge", m["ssb.merge_ns_per_rec"], true},
		{"trigger/emit", m["ssb.trigger_ns_per_rec"], true},
		{"recovery journal", m["recovery.append_ns_per_rec"], in.spec.cluster},
	}
	sum := 0.0
	fmt.Println("# per-stage ledger, ns per input record (* = counted in the layer sum)")
	for _, s := range stages {
		tag := " "
		if s.sum {
			sum += s.ns
			tag = "*"
		}
		fmt.Printf("#  %s %-58s %10.2f\n", tag, s.name, s.ns)
	}
	m["trace.layer_sum_ns_per_rec"] = sum
	m["trace.unaccounted_ns_per_rec"] = m["trace.cpu_ns_per_rec"] - sum
	fmt.Printf("# reconciliation: trace.layer_sum_ns_per_rec %.2f vs traced cpu_ns_per_rec %.2f: unaccounted %.2f ns/rec (scheduling, polling, contention)\n",
		sum, m["trace.cpu_ns_per_rec"], m["trace.unaccounted_ns_per_rec"])
	fmt.Printf("# tracing overhead: traced %.0f rec/s vs untraced %.0f rec/s (trace.overhead_frac %.4f)\n",
		medianOf(ok, rate), medianOf(okPlain, rate), m["trace.overhead_frac"])
	fmt.Printf("# replay: %d iterations, %d chunks pumped through each transport\n", rp.iterations, rp.transferred)
	printTable("per-layer", perLayer, m)
	res.Metrics = pick(perLayer, m)
	return res
}

// engineMetrics reads the in-process traced runs' wrappers: the engine's
// metrics registry, the scheduler counters, the wrapped channel ports and
// their fabric's NICs.
func engineMetrics(m map[string]float64, ok []pass) {
	perRec := func(f func(p pass) float64) float64 {
		return medianOf(ok, func(p pass) float64 { return f(p) / float64(p.records) })
	}
	busy := func(p pass, task string, tasks int) float64 {
		h := p.reg.Histogram(fmt.Sprintf(`core_step_ns{task=%q}`, task))
		return float64(h.Sum()) / (float64(p.elapsed.Nanoseconds()) * float64(tasks))
	}
	m["core.source_busy_frac"] = medianOf(ok, func(p pass) float64 { return busy(p, "source", numNodes*threads) })
	m["core.merge_busy_frac"] = medianOf(ok, func(p pass) float64 { return busy(p, "merge", numNodes) })
	m["core.merge_backlog_slots_max"] = medianOf(ok, func(p pass) float64 {
		var v int64
		for n := 0; n < numNodes; n++ {
			v = max(v, p.reg.Gauge(fmt.Sprintf(`core_merge_backlog_slots_max{node="%d"}`, n)).Load())
		}
		return float64(v)
	})
	m["core.flow_fill_ns_per_rec"] = perRec(func(p pass) float64 { return float64(p.fillNs) })

	// links sums f over the wrapped ports of every link.
	links := func(p pass, f func(s *tracedSend, r *tracedRecv) float64) float64 {
		var v float64
		for s := 0; s < numNodes; s++ {
			for d := 0; d < numNodes; d++ {
				if s != d {
					v += f(p.ports.send[s][d], p.ports.recv[s][d])
				}
			}
		}
		return v
	}
	slots := func(p pass) float64 {
		return links(p, func(s *tracedSend, _ *tracedRecv) float64 { return float64(s.slots) })
	}
	m["channel.slots"] = medianOf(ok, slots)
	m["channel.acquire_wait_ns_per_slot"] = medianOf(ok, func(p pass) float64 {
		return links(p, func(s *tracedSend, _ *tracedRecv) float64 { return float64(s.acquireNs) }) / slots(p)
	})
	m["channel.post_ns_per_slot"] = medianOf(ok, func(p pass) float64 {
		return links(p, func(s *tracedSend, _ *tracedRecv) float64 { return float64(s.postNs) }) / slots(p)
	})
	m["channel.poll_hit_frac"] = medianOf(ok, func(p pass) float64 {
		return links(p, func(_ *tracedSend, r *tracedRecv) float64 { return float64(r.hits) }) /
			links(p, func(_ *tracedSend, r *tracedRecv) float64 { return float64(r.polls) })
	})
	m["channel.credit_stall_frac"] = medianOf(ok, func(p pass) float64 {
		return float64(p.ports.counter("channel_credit_stall_ns_total")) /
			(float64(p.elapsed.Nanoseconds()) * numNodes * threads)
	})
	m["rdma.tx_bytes_per_rec"] = perRec(func(p pass) float64 {
		var v int64
		for _, nic := range p.ports.nics {
			v += nic.Stats().TxBytes
		}
		return float64(v)
	})
	m["rdma.tx_msgs_per_rec"] = perRec(func(p pass) float64 {
		var v int64
		for _, nic := range p.ports.nics {
			v += nic.Stats().TxMsgs
		}
		return float64(v)
	})
	m["sched.idle_rounds_per_rec"] = perRec(func(p pass) float64 { return float64(p.rep.Sched.IdleRounds) })
	m["sched.ready_step_frac"] = medianOf(ok, func(p pass) float64 {
		return float64(p.rep.Sched.ReadySteps) / float64(p.rep.Sched.Steps)
	})
}
