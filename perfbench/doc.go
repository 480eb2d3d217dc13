// Command perfbench is the repository benchmark: one command that runs a
// named workload against the Slash engine for a fixed time, checks every
// run's output against an independent sequential reference, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics of a traced
// run — as the last line of its output:
//
//	bash perfbench/run.sh --workload ysb --seed 1 --seconds 10 --trace 0
//
// It reaches the engine only through the public interfaces of core, ssb,
// window, channel, rdma, netfab, cluster, recovery and metrics; no package
// code knows it exists.
//
// # Load shape
//
// Every workload runs 2 nodes × 1 source thread, so the load generator is
// two flows, no more than the two cores of the reference host. The
// in-process fabric is the default unthrottled inline one. Inputs are a pure
// function of --seed; the in-process workloads materialise them into
// core.ColumnarFlows before any timer starts, so the engine receives only
// generated records. Seed 6007 is held out: it is never used while tuning,
// and a claimed gain must also hold on it. The first engine run in a process
// is markedly slower than later ones, so each measurement starts with one
// warm-up run that is checked but never sampled.
//
// # Workloads
//
//   - ysb: closed loop, in process. workload.Build("ysb"): 100k campaigns,
//     uniform keys, the filter keeps a third, tumbling count windows.
//     Compute-bound aggregation: the source batch step and the SSB update
//     dominate and it ships well under a byte per record, so merge and
//     transfer do little. It is the Fig. 6a query.
//   - ysb-paced: open loop, in process. The same YSB generator with windows
//     sized so that each run closes 128 of them, released by a due-time
//     schedule at 5 M rec/s across both flows (about a third of ysb's
//     throughput) that does not slow when the engine does. The only workload
//     where result latency is measured under a stated load and where idle
//     polling shows. A run whose last record is handed over more than 50 ms
//     after it was due has a growing backlog: it is over capacity, counts as
//     failed, and gives no latency samples.
//   - nb8: closed loop, in process. workload.Build("nb8"), the NEXMark Q8
//     wide-window join. Append-only bag state ships about 30× ysb's bytes
//     per record, so flush serialisation, the chunk codec, the channel, the
//     leader merge and the bag trigger dominate. It reaches SSB through
//     AppendBagBatch, not UpdateAggBatch.
//   - ysb-netfab: a coordinator and two workers in this process over netfab
//     TCP loopback (cluster.NewCoordinator/NewWorker). cluster.Spec names
//     "ysb" with the same seed and records as ysb, so its rows — compared
//     through cluster.RenderRows — are identical. The only workload with the
//     netfab wire, cluster bootstrap and the recovery journal on the critical
//     path; its generator runs inside the workers.
//
// Pairings, one exercising and one bypassing a mechanism: ysb-netfab
// exercises netfab, cluster and recovery, ysb bypasses all three; nb8
// exercises the bag path and the bulk transfer layers, ysb bypasses them;
// ysb-paced exercises idle polling and result latency under load, ysb runs
// closed loop where polling never idles.
//
// # End-to-end metrics (--trace 0)
//
//   - throughput_rec_s: input records ÷ seconds from the start of the run to
//     its last result; set-up excluded. Median over runs. On ysb-netfab the
//     last result is the last window trigger journaled by any worker; the
//     shipping of every worker's rows to the coordinator for the check comes
//     after it and is reported as cluster.finish_s.
//   - emit_latency_p50_ms, emit_latency_p95_ms: one sample per (window,
//     leader): the leader's first row of the window minus the release of the
//     window's last contributing record, latest across flows. Release is the
//     due time on ysb-paced and the hand-over of the record's batch to the
//     engine on ysb and nb8. On ysb-netfab the first row is the window's
//     trigger mark in the leader's journal and the release is the journaled
//     start of the flush carrying the record, so the sample excludes the wait
//     for the epoch to fill. Percentiles over all samples of all runs.
//   - cpu_ns_per_rec: process user+system CPU during the run ÷ records.
//   - alloc_bytes_per_rec: heap bytes allocated during the run ÷ records.
//     Both cover the same interval as throughput_rec_s.
//   - heap_peak_mb: peak heap sampled every millisecond during the run,
//     minus the heap before the deployment is set up, so the pre-generated
//     input is excluded and the deployment's own memory is not.
//   - setup_s: deployment bring-up: core.NewController in process; from the
//     coordinator's listen to "members wired, starting" on ysb-netfab.
//
// Runs that fail, hang, are over capacity or differ from the reference are
// counted in the result's "failed" field against "attempted"; that is the
// failed fraction.
//
// # Per-layer metrics (--trace 1)
//
// A traced run measures from outside in two ways. (a) It wraps the public
// interfaces of a real engine run: the flows' Batch, the sink, the channel
// ports (handed in through core.Config.Placement.Link with every node
// owned), Config.Metrics and Report.Sched, and on ysb-netfab the workers'
// recovery.Store and the coordinator's progress lines. (b) A single-goroutine
// replay drives the workload's own batches through Query.FilterBatch,
// MapBatch and JoinSideBatch, window.ForRuns(...).AssignRuns,
// ThreadState.UpdateAggBatch/AppendBagBatch/Flush, Chunk.Encode,
// ssb.DecodeChunk, Backend.HandleChunk and TriggerReady, then pumps the
// recorded chunk stream through channel.New on the inline rdma fabric and
// through a netfab-backed channel. Its output is checked against the
// reference too.
//
// Which end-to-end metric each layer should move, and on which workload:
//
//	core (busy fractions, merge backlog, flow fill, operators, emitted rows)
//	                           → throughput_rec_s on ysb
//	window.assign              → throughput_rec_s on ysb
//	ssb update, state bytes    → throughput_rec_s on ysb; heap_peak_mb on nb8
//	ssb flush and chunk codec  → throughput_rec_s on nb8
//	ssb merge                  → throughput_rec_s on nb8
//	ssb trigger/emit           → throughput_rec_s on nb8; emit_latency_p95_ms on ysb-paced
//	channel                    → throughput_rec_s on nb8 and ysb
//	rdma                       → throughput_rec_s on nb8
//	sched                      → cpu_ns_per_rec on ysb-paced; throughput_rec_s on ysb
//	netfab                     → throughput_rec_s on ysb-netfab
//	cluster                    → setup_s on ysb-netfab
//	recovery                   → throughput_rec_s on ysb-netfab
//	workload.pacer_*           → validity of ysb-paced
//
// So netfab, cluster and recovery changes should move nothing on the three
// in-process workloads. Layers a workload bypasses report 0: cluster and
// recovery outside ysb-netfab, the pacer outside ysb-paced, and the (a)
// engine wrappers on ysb-netfab, whose engines live inside the workers.
//
// The traced run prints a per-stage ledger under the stage names of the
// roadmap — source batch step, SSB update, chunk codec, channel transfer,
// verbs post, merge, trigger/emit, netfab wire — and the reconciliation
// line: trace.layer_sum_ns_per_rec, the stages on the workload's critical
// path, against the traced run's cpu_ns_per_rec; trace.unaccounted_ns_per_rec
// is the difference (scheduling, polling, contention). trace.overhead_frac is
// one minus the traced throughput over the untraced throughput of the same
// invocation.
package main
