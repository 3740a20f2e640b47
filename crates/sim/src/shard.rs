//! Sharded deterministic execution: N schedulers, conservative time windows.
//!
//! A single [`crate::sched::Scheduler`] event loop is the throughput ceiling
//! of every experiment (ROADMAP item 2): the loop is inherently serial, so a
//! rack-scale fleet of pods simulates no faster than one pod. This module
//! pushes the lookahead trick the sweep runner exploits at whole-experiment
//! granularity *into a single run*: the simulated world is split into
//! **shards** (one pod, or one host group, per shard), each owning its own
//! deterministic scheduler, and the shards only rendezvous at **window
//! barriers**.
//!
//! # The conservative window protocol
//!
//! Cross-shard interactions travel over explicit links with a known minimum
//! latency `L` (in Oasis, the inter-pod uplink latency exposed by
//! `oasis-cxl`'s topology model). That latency is *lookahead* in the
//! classical conservative-parallel-DES sense (Chandy/Misra/Bryant): an event
//! executed at time `t` in one shard can influence another shard no earlier
//! than `t + L`. The runner therefore advances every shard independently —
//! in parallel — through the window `[t, t+L)`, then exchanges the messages
//! produced in that window at the barrier, delivers those due in the next
//! window, and repeats. No shard ever receives a message "from the past", so
//! no rollback machinery is needed and results are bit-identical to a
//! sequential merge.
//!
//! # Determinism
//!
//! Two sources of nondeterminism must be pinned for byte-identical output at
//! any thread count:
//!
//! 1. **Within a window** each shard runs on its own scheduler over its own
//!    world — no shared mutable state, so thread interleaving cannot be
//!    observed.
//! 2. **At the barrier** messages are merged in the total order
//!    `(deliver_time, src_shard, seq)` — `seq` being the send order within
//!    the source shard — never in thread-arrival order. The merge happens on
//!    the coordinating thread after all workers reach the barrier, so the
//!    exchange itself is single-threaded and ordered.
//!
//! With one shard there are no cross-shard links, the lookahead is
//! effectively infinite, and the "window" is the whole run: the sharded path
//! degenerates to exactly the sequential event loop. `OASIS_SHARD_THREADS=1`
//! runs the same code with the parallel advance replaced by an in-order
//! loop; both paths produce identical bytes by construction.
//!
//! # Allocation discipline
//!
//! The barrier exchange reuses pooled per-shard buffers (`inbox`, `outbox`,
//! and the pending queue) across windows — message envelopes are plain
//! values moved between pre-grown `Vec` arenas, so steady-state exchange
//! performs no per-message allocation. Shards are encouraged to batch: a
//! `run_window` call processes *every* local event in the window in one
//! visit, amortizing scheduler heap traffic over the batch.

use crate::time::{SimDuration, SimTime};

/// Environment variable overriding the shard worker thread count.
///
/// `1` (the default when unset) advances shards in order on the calling
/// thread; any higher value fans windows across that many scoped workers.
/// Simulation output is byte-identical at every setting.
pub const SHARD_THREADS_ENV: &str = "OASIS_SHARD_THREADS";

/// Worker thread count from [`SHARD_THREADS_ENV`], defaulting to 1 (the
/// sequential path) when unset or unparsable.
pub fn threads_from_env() -> usize {
    std::env::var(SHARD_THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// A cross-shard message as delivered: stamped with its delivery time and
/// provenance. Inboxes are sorted by `(at, src, seq)` — the deterministic
/// merge order — before the owning shard sees them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Simulated delivery time at the destination shard.
    pub at: SimTime,
    /// Source shard index.
    pub src: u32,
    /// Send order within the source shard (monotonic per src over the run).
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// A cross-shard message as sent: the producing shard names the destination
/// and the delivery time (send time + link latency, hence ≥ the window end);
/// the runner stamps provenance at the barrier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// Destination shard index.
    pub dst: usize,
    /// Simulated delivery time (must be ≥ the current window's end).
    pub at: SimTime,
    /// The payload.
    pub msg: M,
}

/// One shard of a sharded simulation: a self-contained world advanced
/// window-by-window, exchanging messages with other shards only at barriers.
pub trait ShardWorld {
    /// Cross-shard message payload.
    type Msg;

    /// Earliest simulated time at which this shard has local work pending
    /// ([`SimTime::MAX`] when idle). Used to open windows at the next busy
    /// instant instead of grinding lookahead-sized steps through idle
    /// stretches; an idle shard parks here rather than stalling the barrier.
    fn next_time(&self) -> SimTime;

    /// Advance this shard's clock to `until` (exclusive), first absorbing
    /// `inbox` (sorted by `(at, src, seq)`; every `at` falls inside the
    /// window) and pushing any cross-shard sends into `outbox` with
    /// delivery times no earlier than `until`. Returns the number of events
    /// processed, for throughput accounting and stall telemetry. The runner
    /// recycles both buffers across windows — capacity is retained, nothing
    /// is reallocated per message.
    fn run_window(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<Self::Msg>>,
        outbox: &mut Vec<Outgoing<Self::Msg>>,
    ) -> u64;
}

/// Why a sharded run refused to start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// More than one shard with zero cross-shard lookahead: windows would
    /// have zero width and the barrier could never make progress. Merge the
    /// zero-latency shards into one, or give the link a real latency.
    ZeroLookahead {
        /// Number of shards in the rejected run.
        shards: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::ZeroLookahead { shards } => write!(
                f,
                "sharded run with {shards} shards but zero cross-shard lookahead; \
                 a zero-latency link means the shards are one shard"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// Telemetry for one sharded run, collected only with the `obs` feature on.
#[cfg(feature = "obs")]
#[derive(Clone, Default)]
pub struct ShardStats {
    /// Window barriers crossed.
    pub windows: u64,
    /// Events processed per shard (tag = shard index on export).
    pub shard_events: Vec<u64>,
    /// Shard-window visits that processed zero events — the shard reached
    /// the barrier with nothing to do and stalled there.
    pub barrier_stalls: u64,
    /// Cross-shard messages exchanged.
    pub messages: u64,
    /// Realized window lengths in simulated nanoseconds (idle-gap skipping
    /// and run horizons make windows differ from the raw lookahead).
    pub window_ns: crate::hist::Histogram,
}

#[cfg(feature = "obs")]
impl ShardStats {
    /// Fold another run's stats into this one (shard indices must line up).
    pub fn merge(&mut self, other: &ShardStats) {
        self.windows += other.windows;
        if self.shard_events.len() < other.shard_events.len() {
            self.shard_events.resize(other.shard_events.len(), 0);
        }
        for (a, b) in self.shard_events.iter_mut().zip(other.shard_events.iter()) {
            *a += b;
        }
        self.barrier_stalls += other.barrier_stalls;
        self.messages += other.messages;
        self.window_ns.merge(&other.window_ns);
    }
}

/// Per-shard state owned by the runner: the pooled message arenas.
struct ShardBuf<M> {
    /// Messages awaiting delivery to this shard in a future window, kept
    /// sorted by `(at, src, seq)`.
    pending: Vec<Envelope<M>>,
    /// Scratch inbox handed to `run_window`; reused every window.
    inbox: Vec<Envelope<M>>,
    /// Scratch outbox handed to `run_window`; drained at the barrier.
    outbox: Vec<Outgoing<M>>,
}

impl<M> Default for ShardBuf<M> {
    fn default() -> Self {
        ShardBuf {
            pending: Vec::new(),
            inbox: Vec::new(),
            outbox: Vec::new(),
        }
    }
}

/// Advances N [`ShardWorld`]s in lockstep windows with deterministic
/// cross-shard message exchange. Owns the window cursor and the pooled
/// message arenas, and persists across `run` calls so repeated stepping
/// (a fleet run in short horizons) reuses buffers.
pub struct ShardedRunner<M> {
    threads: usize,
    lookahead: SimDuration,
    now: SimTime,
    bufs: Vec<ShardBuf<M>>,
    /// Next send sequence number per source shard.
    seqs: Vec<u64>,
    #[cfg(feature = "obs")]
    stats: ShardStats,
}

impl<M> ShardedRunner<M> {
    /// A runner for `shards` shards with the given cross-shard lookahead
    /// (the minimum latency of any cross-shard link) and worker thread
    /// count (clamped to at least 1).
    pub fn new(shards: usize, lookahead: SimDuration, threads: usize) -> Self {
        ShardedRunner {
            threads: threads.max(1),
            lookahead,
            now: SimTime::ZERO,
            bufs: (0..shards).map(|_| ShardBuf::default()).collect(),
            seqs: vec![0; shards],
            #[cfg(feature = "obs")]
            stats: ShardStats {
                shard_events: vec![0; shards],
                ..ShardStats::default()
            },
        }
    }

    /// Configured worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of shards this runner coordinates.
    pub fn shards(&self) -> usize {
        self.bufs.len()
    }

    /// The window cursor: all shards have been advanced to at least here.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Telemetry collected so far.
    #[cfg(feature = "obs")]
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Advance every shard to `until`, honoring the configured thread count.
    /// With one shard (or one thread) this takes the sequential path; with
    /// several of both, windows fan across scoped worker threads. Both paths
    /// run byte-identical simulations.
    pub fn run<W>(&mut self, worlds: &mut [W], until: SimTime) -> Result<SimTime, ShardError>
    where
        W: ShardWorld<Msg = M> + Send,
        M: Send,
    {
        if self.threads > 1 && worlds.len() > 1 {
            self.run_par(worlds, until)
        } else {
            self.run_seq(worlds, until)
        }
    }

    /// The sequential path: same window protocol, shards advanced in index
    /// order on the calling thread. No `Send` bound — single-shard worlds
    /// can use this unconditionally.
    pub fn run_seq<W>(&mut self, worlds: &mut [W], until: SimTime) -> Result<SimTime, ShardError>
    where
        W: ShardWorld<Msg = M>,
    {
        self.check(worlds.len())?;
        let mut events: Vec<u64> = vec![0; worlds.len()];
        loop {
            let mut earliest = SimTime::MAX;
            for (i, w) in worlds.iter().enumerate() {
                earliest = earliest.min(w.next_time());
                if let Some(e) = self.bufs[i].pending.first() {
                    earliest = earliest.min(e.at);
                }
            }
            let Some(w_end) = self.next_window(earliest, until) else {
                break;
            };
            let w_start = self.now;
            for (i, w) in worlds.iter_mut().enumerate() {
                let buf = &mut self.bufs[i];
                buf.inbox.clear();
                let k = buf.pending.partition_point(|e| e.at < w_end);
                if k > 0 {
                    let due = buf.pending.drain(..k);
                    buf.inbox.extend(due);
                }
                events[i] = w.run_window(w_end, &mut buf.inbox, &mut buf.outbox);
            }
            self.exchange(w_end);
            self.note_window(w_start, w_end, &events);
            self.now = w_end;
        }
        self.now = self.now.max(until);
        Ok(self.now)
    }

    /// The parallel path: workers claim shards from an atomic counter and
    /// advance them window-by-window between two barriers; the coordinator
    /// alone performs delivery and exchange between rounds, so the merge is
    /// single-threaded and identical to the sequential path.
    fn run_par<W>(&mut self, worlds: &mut [W], until: SimTime) -> Result<SimTime, ShardError>
    where
        W: ShardWorld<Msg = M> + Send,
        M: Send,
    {
        use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
        use std::sync::{Barrier, Mutex};

        self.check(worlds.len())?;
        let shards = worlds.len();
        let workers = self.threads.min(shards);

        /// A shard checked out to the worker pool for one window round.
        struct Slot<'w, W, M> {
            world: &'w mut W,
            inbox: Vec<Envelope<M>>,
            outbox: Vec<Outgoing<M>>,
            events: u64,
        }

        // The slot mutexes and barriers below are *coordination* state,
        // touched a constant number of times per window round — they never
        // appear on the intra-shard hot path, which runs lock-free over the
        // shard's own scheduler.
        let slots: Vec<Mutex<Slot<W, M>>> = worlds
            .iter_mut()
            .enumerate()
            .map(|(i, world)| {
                // oasis-check: allow(thread-discipline) slot checkout mutex, uncontended between rounds
                Mutex::new(Slot {
                    world,
                    inbox: std::mem::take(&mut self.bufs[i].inbox),
                    outbox: std::mem::take(&mut self.bufs[i].outbox),
                    events: 0,
                })
            })
            .collect();
        // oasis-check: allow(thread-discipline) window-round rendezvous, two waits per window
        let round_start = Barrier::new(workers + 1);
        // oasis-check: allow(thread-discipline) window-round rendezvous, two waits per window
        let round_end = Barrier::new(workers + 1);
        // oasis-check: allow(thread-discipline) shard claim counter, same shape as SweepRunner
        let claim = AtomicUsize::new(0);
        // oasis-check: allow(thread-discipline) coordinator publishes each round's window end
        let w_end_ns = AtomicU64::new(0);
        // oasis-check: allow(thread-discipline) run-loop shutdown flag
        let stop = AtomicBool::new(false);

        let mut events: Vec<u64> = vec![0; shards];
        // oasis-check: allow(thread-discipline) vendored scoped-thread helper, as SweepRunner uses
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    round_start.wait();
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let w_end = SimTime::from_nanos(w_end_ns.load(Ordering::Acquire));
                    loop {
                        let i = claim.fetch_add(1, Ordering::Relaxed);
                        if i >= shards {
                            break;
                        }
                        let mut slot = slots[i].lock().unwrap();
                        let Slot {
                            world,
                            inbox,
                            outbox,
                            events,
                        } = &mut *slot;
                        *events = world.run_window(w_end, inbox, outbox);
                    }
                    round_end.wait();
                });
            }

            // Coordinator (this thread). Between barrier rounds the slot
            // mutexes are uncontended; locking them here is bookkeeping,
            // not synchronization.
            loop {
                let mut earliest = SimTime::MAX;
                for (i, slot) in slots.iter().enumerate() {
                    earliest = earliest.min(slot.lock().unwrap().world.next_time());
                    if let Some(e) = self.bufs[i].pending.first() {
                        earliest = earliest.min(e.at);
                    }
                }
                let Some(w_end) = self.next_window(earliest, until) else {
                    break;
                };
                let w_start = self.now;
                for (i, slot) in slots.iter().enumerate() {
                    let mut slot = slot.lock().unwrap();
                    slot.inbox.clear();
                    let pending = &mut self.bufs[i].pending;
                    let k = pending.partition_point(|e| e.at < w_end);
                    if k > 0 {
                        let due = pending.drain(..k);
                        slot.inbox.extend(due);
                    }
                }
                w_end_ns.store(w_end.as_nanos(), Ordering::Release);
                claim.store(0, Ordering::Release);
                round_start.wait();
                round_end.wait();
                // Pull outboxes into the runner's arenas, merge, then hand
                // the drained (capacity-retaining) buffers back.
                for (i, slot) in slots.iter().enumerate() {
                    let mut slot = slot.lock().unwrap();
                    events[i] = slot.events;
                    self.bufs[i].outbox = std::mem::take(&mut slot.outbox);
                }
                self.exchange(w_end);
                for (i, slot) in slots.iter().enumerate() {
                    slot.lock().unwrap().outbox = std::mem::take(&mut self.bufs[i].outbox);
                }
                self.note_window(w_start, w_end, &events);
                self.now = w_end;
            }
            stop.store(true, Ordering::Release);
            round_start.wait();
        })
        .expect("shard worker panicked");

        // Reclaim the arenas for the next run call.
        for (i, slot) in slots.into_iter().enumerate() {
            let slot = slot.into_inner().unwrap();
            self.bufs[i].inbox = slot.inbox;
            self.bufs[i].outbox = slot.outbox;
        }
        self.now = self.now.max(until);
        Ok(self.now)
    }

    fn check(&self, worlds: usize) -> Result<(), ShardError> {
        assert_eq!(worlds, self.bufs.len(), "shard count mismatch");
        if worlds > 1 && self.lookahead == SimDuration::ZERO {
            return Err(ShardError::ZeroLookahead { shards: worlds });
        }
        Ok(())
    }

    /// Compute the next window `[w_start, w_end)` given the earliest pending
    /// work across all shards, skipping idle gaps: the window opens at the
    /// earliest work, not at the cursor, so barrier rounds scale with *busy*
    /// windows rather than wall-to-wall lookahead quanta. Returns `None`
    /// when the run is complete.
    fn next_window(&mut self, earliest: SimTime, until: SimTime) -> Option<SimTime> {
        if self.now >= until {
            return None;
        }
        if earliest >= until {
            // Nothing due before the horizon: jump straight there.
            self.now = until;
            return None;
        }
        self.now = self.now.max(earliest);
        // A single shard has no cross-shard links: infinite lookahead, one
        // window to the horizon, exactly the sequential event loop.
        if self.bufs.len() <= 1 {
            return Some(until);
        }
        Some((self.now + self.lookahead).min(until))
    }

    /// Barrier exchange: drain every outbox, stamp `(src, seq)`, and route
    /// into the destination's pending queue in `(at, src, seq)` order. Runs
    /// on the coordinating thread only — merge order is a pure function of
    /// shard contents, never of worker timing.
    fn exchange(&mut self, w_end: SimTime) {
        let shards = self.bufs.len();
        for src in 0..shards {
            if self.bufs[src].outbox.is_empty() {
                continue;
            }
            let mut outbox = std::mem::take(&mut self.bufs[src].outbox);
            let seq0 = self.seqs[src];
            self.seqs[src] += outbox.len() as u64;
            #[cfg(feature = "obs")]
            {
                self.stats.messages += outbox.len() as u64;
            }
            for (k, o) in outbox.drain(..).enumerate() {
                debug_assert!(
                    o.at >= w_end,
                    "conservative violation: msg for {:?} sent in window ending {:?}",
                    o.at,
                    w_end
                );
                self.bufs[o.dst].pending.push(Envelope {
                    at: o.at,
                    src: src as u32,
                    seq: seq0 + k as u64,
                    msg: o.msg,
                });
            }
            // Hand the drained (capacity-retaining) buffer back to the pool.
            self.bufs[src].outbox = outbox;
        }
        for buf in &mut self.bufs {
            // Unique (src, seq) pairs make the key a total order, so the
            // unstable sort is deterministic.
            buf.pending.sort_unstable_by_key(|e| (e.at, e.src, e.seq));
        }
    }

    #[cfg(feature = "obs")]
    fn note_window(&mut self, w_start: SimTime, w_end: SimTime, events: &[u64]) {
        self.stats.windows += 1;
        self.stats.window_ns.record((w_end - w_start).as_nanos());
        for (i, &e) in events.iter().enumerate() {
            self.stats.shard_events[i] += e;
            if e == 0 {
                self.stats.barrier_stalls += 1;
            }
        }
    }

    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_window(&mut self, _w_start: SimTime, _w_end: SimTime, _events: &[u64]) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A minimal shard world: fires local events at fixed times, forwarding
    /// each one (and each received message, up to a hop budget) to a fixed
    /// destination shard after the link latency. Logs every delivery so
    /// tests can assert on merge order and determinism.
    struct TestShard {
        dst: usize,
        latency: SimDuration,
        hops: u64,
        local: VecDeque<SimTime>,
        log: Vec<(SimTime, u32, u64, u64)>,
        window_calls: u64,
        fired: u64,
    }

    impl TestShard {
        fn new(dst: usize, latency_ns: u64, hops: u64, local: &[u64]) -> Self {
            TestShard {
                dst,
                latency: SimDuration::from_nanos(latency_ns),
                hops,
                local: local.iter().map(|&t| SimTime::from_nanos(t)).collect(),
                log: Vec::new(),
                window_calls: 0,
                fired: 0,
            }
        }
    }

    impl ShardWorld for TestShard {
        type Msg = u64;

        fn next_time(&self) -> SimTime {
            self.local.front().copied().unwrap_or(SimTime::MAX)
        }

        fn run_window(
            &mut self,
            until: SimTime,
            inbox: &mut Vec<Envelope<u64>>,
            outbox: &mut Vec<Outgoing<u64>>,
        ) -> u64 {
            self.window_calls += 1;
            let mut n = 0;
            for e in inbox.drain(..) {
                assert!(e.at < until, "delivery past the window end");
                self.log.push((e.at, e.src, e.seq, e.msg));
                n += 1;
                if e.msg < self.hops {
                    outbox.push(Outgoing {
                        dst: self.dst,
                        at: e.at + self.latency,
                        msg: e.msg + 1,
                    });
                }
            }
            while self.local.front().is_some_and(|&t| t < until) {
                let t = self.local.pop_front().unwrap();
                n += 1;
                self.fired += 1;
                outbox.push(Outgoing {
                    dst: self.dst,
                    at: t + self.latency,
                    msg: 0,
                });
            }
            n
        }
    }

    /// A 3-shard ring with staggered local events and multi-hop forwarding.
    fn ring() -> Vec<TestShard> {
        vec![
            TestShard::new(1, 100, 5, &[0, 40, 40, 1_000]),
            TestShard::new(2, 100, 5, &[70]),
            TestShard::new(0, 100, 5, &[250, 251]),
        ]
    }

    fn run_ring(threads: usize) -> Vec<Vec<(SimTime, u32, u64, u64)>> {
        let mut worlds = ring();
        let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), threads);
        runner
            .run(&mut worlds, SimTime::from_micros(10))
            .expect("ring run");
        worlds.into_iter().map(|w| w.log).collect()
    }

    #[test]
    fn byte_identical_at_any_thread_count() {
        let base = run_ring(1);
        assert!(base.iter().any(|l| !l.is_empty()), "ring exchanged nothing");
        for threads in [2, 3, 8] {
            assert_eq!(run_ring(threads), base, "threads={threads}");
        }
    }

    #[test]
    fn stepped_run_matches_single_run() {
        // Stepping in many short horizons must land in the same state as
        // one long one.
        let one_shot = run_ring(1);
        let mut worlds = ring();
        let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), 2);
        for step in 1..=100u64 {
            runner
                .run(&mut worlds, SimTime::from_nanos(step * 100))
                .expect("stepped run");
        }
        let stepped: Vec<_> = worlds.into_iter().map(|w| w.log).collect();
        assert_eq!(stepped, one_shot);
    }

    #[test]
    fn zero_lookahead_is_a_deterministic_error() {
        let mut worlds = ring();
        let mut runner = ShardedRunner::new(3, SimDuration::ZERO, 2);
        let err = runner
            .run(&mut worlds, SimTime::from_micros(1))
            .expect_err("zero lookahead must not run");
        assert_eq!(err, ShardError::ZeroLookahead { shards: 3 });
    }

    #[test]
    fn zero_lookahead_single_shard_is_fine() {
        // One shard has no cross-shard links, so zero lookahead is vacuous.
        // Its window spans the whole horizon, so (conservative) self-sends
        // must land past the horizon and deliver on the next run call.
        let mut worlds = vec![TestShard::new(0, 2_000, 0, &[10, 20])];
        let mut runner = ShardedRunner::new(1, SimDuration::ZERO, 4);
        runner
            .run(&mut worlds, SimTime::from_micros(1))
            .expect("single shard runs");
        assert_eq!(worlds[0].fired, 2);
        assert!(worlds[0].log.is_empty());
        runner
            .run(&mut worlds, SimTime::from_micros(4))
            .expect("second horizon");
        assert_eq!(worlds[0].log.len(), 2, "self-sends delivered next horizon");
    }

    #[test]
    fn boundary_events_merge_in_time_shard_seq_order() {
        // Shards 1 and 2 both deliver to shard 0 at exactly t=300ns (a
        // window boundary for lookahead=100): merge order must be
        // (time, src shard, seq) regardless of worker interleaving.
        for threads in [1, 4] {
            let mut worlds = vec![
                TestShard::new(0, 100, 0, &[]),
                TestShard::new(0, 100, 0, &[200, 200]),
                TestShard::new(0, 100, 0, &[200]),
            ];
            let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), threads);
            runner
                .run(&mut worlds, SimTime::from_micros(1))
                .expect("boundary run");
            let at = SimTime::from_nanos(300);
            assert_eq!(
                worlds[0].log,
                vec![(at, 1, 0, 0), (at, 1, 1, 0), (at, 2, 0, 0)],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_shard_does_not_stall_the_barrier() {
        // Shard 1 never has local work; it must park at the barrier and let
        // the run finish, still receiving what is sent to it.
        let mut worlds = vec![
            TestShard::new(1, 100, 0, &[50]),
            TestShard::new(0, 100, 0, &[]),
        ];
        let mut runner = ShardedRunner::new(2, SimDuration::from_nanos(100), 2);
        let end = runner
            .run(&mut worlds, SimTime::from_micros(1))
            .expect("empty shard run");
        assert_eq!(end, SimTime::from_micros(1));
        assert_eq!(worlds[1].log, vec![(SimTime::from_nanos(150), 0, 0, 0)]);
    }

    #[test]
    fn idle_gaps_are_skipped_not_ground_through() {
        // Events at t=0 and t=1ms with 100ns lookahead: a naive runner would
        // grind ~10,000 windows; idle realignment needs a handful.
        let mut worlds = vec![
            TestShard::new(1, 100, 0, &[0, 1_000_000]),
            TestShard::new(0, 100, 0, &[]),
        ];
        let mut runner = ShardedRunner::new(2, SimDuration::from_nanos(100), 1);
        runner
            .run(&mut worlds, SimTime::from_millis(2))
            .expect("idle gap run");
        assert!(
            worlds[0].window_calls < 16,
            "expected idle skipping, got {} windows",
            worlds[0].window_calls
        );
        assert_eq!(worlds[1].log.len(), 2);
    }

    #[test]
    fn single_shard_runs_one_window_per_horizon() {
        let mut worlds = vec![TestShard::new(0, 5_000, 0, &[5, 15, 25])];
        let mut runner = ShardedRunner::new(1, SimDuration::from_nanos(10), 8);
        runner
            .run(&mut worlds, SimTime::from_micros(1))
            .expect("single shard");
        // All three local events batch into one full-horizon window.
        assert_eq!(worlds[0].window_calls, 1);
        assert_eq!(worlds[0].fired, 3);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn stats_count_windows_events_and_stalls() {
        let mut worlds = ring();
        let mut runner = ShardedRunner::new(3, SimDuration::from_nanos(100), 2);
        runner
            .run(&mut worlds, SimTime::from_micros(10))
            .expect("ring run");
        let stats = runner.stats().clone();
        assert!(stats.windows > 0);
        assert!(stats.messages > 0);
        let processed: u64 = worlds.iter().map(|w| w.log.len() as u64 + w.fired).sum();
        assert_eq!(stats.shard_events.iter().sum::<u64>(), processed);
        assert!(stats.window_ns.count() > 0);

        // Associative merge: stats from two half-runs fold into the same
        // totals as one full run.
        let mut a = ShardStats::default();
        a.merge(&stats);
        a.merge(&ShardStats::default());
        assert_eq!(a.windows, stats.windows);
        assert_eq!(a.shard_events, stats.shard_events);
        assert_eq!(a.messages, stats.messages);
    }
}
