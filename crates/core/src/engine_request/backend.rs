//! Request-engine backend driver: operates the device's queues (§3.4).

use oasis_channel::{Receiver, Sender, SeqWindow};
use oasis_cxl::{CxlPool, HostCtx};
use oasis_sim::detmap::DetMap;
use oasis_sim::time::SimTime;

use crate::config::OasisConfig;
use crate::datapath::PoolDma;
use crate::engine::{DeviceEngine, EngineWorld, WireDescriptor};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable};

use super::RequestDevice;

/// How many completed command ids each frontend link remembers for replay
/// deduplication. Far larger than the in-flight window a frontend can
/// have, so a replayed id is always still remembered.
const DEDUP_WINDOW: usize = 1024;

/// One channel link to a frontend driver.
struct FeLink<O> {
    fe_host: usize,
    to: Sender,
    from: Receiver,
    /// Recently completed command ids (exactly-once execution: replays of
    /// these are answered from `done`, not re-executed; replays of ids the
    /// device still holds are dropped).
    seen: SeqWindow,
    /// Completion outcome per remembered id, evicted in lockstep with
    /// `seen`.
    done: DetMap<u16, O>,
}

/// Backend counters.
#[derive(Clone, Debug, Default)]
pub struct RequestBeStats {
    /// Commands forwarded to the device.
    pub forwarded: u64,
    /// Commands refused by a full submission queue and bounced with an
    /// error.
    pub sq_full: u64,
    /// Completions returned to frontends.
    pub completions: u64,
    /// Replayed commands answered from the completion cache instead of
    /// being re-executed.
    pub replays_answered: u64,
}

/// The backend driver: runs only on hosts with a local device of its class
/// (§3.4), one dedicated polling core.
pub struct RequestBackend<D: RequestDevice> {
    /// The device this backend drives, as an index into its class's table.
    pub dev_id: usize,
    /// The host the device is attached to.
    pub host: usize,
    /// The polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: RequestBeStats,
    cfg: OasisConfig,
    links: Vec<FeLink<D::Outcome>>,
}

impl<D: RequestDevice> RequestBackend<D> {
    /// Create a backend for device `dev_id` on `host`.
    pub fn new(dev_id: usize, host: usize, core: HostCtx, cfg: OasisConfig) -> Self {
        RequestBackend {
            dev_id,
            host,
            core,
            stats: RequestBeStats::default(),
            cfg,
            links: Vec::new(),
        }
    }

    /// Duplicate commands rejected by the per-link dedup windows over the
    /// backend's lifetime (telemetry; exported as `channel.dedup_drops`).
    pub fn dedup_drops(&self) -> u64 {
        self.links.iter().map(|l| l.seen.dup_hits).sum()
    }

    /// Wire a channel pair to a frontend on `fe_host`.
    pub fn add_frontend_link(&mut self, fe_host: usize, to: Sender, from: Receiver) {
        self.links.push(FeLink {
            fe_host,
            to,
            from,
            seen: SeqWindow::new(DEDUP_WINDOW),
            done: DetMap::default(),
        });
    }

    fn link_of(&self, frontend: u32) -> Option<usize> {
        self.links
            .iter()
            .position(|l| l.fe_host == frontend as usize)
    }

    fn send_completion(&mut self, pool: &mut CxlPool, cid: u16, frontend: u32, o: D::Outcome) {
        let Some(li) = self.link_of(frontend) else {
            return;
        };
        let mut wire = [0u8; 64];
        let wire = &mut wire[..D::Completion::WIRE_SIZE];
        D::completion(cid, frontend, o).encode_into(wire);
        let link = &mut self.links[li];
        if link
            .to
            .try_send(&mut self.core, pool, wire)
            .unwrap_or(false)
        {
            link.to.flush(&mut self.core, pool);
            self.stats.completions += 1;
        }
    }

    /// One polling round: commands in, completions out. The backend never
    /// touches data buffers — the device DMAs them directly (§3.2.1).
    pub fn step(&mut self, pool: &mut CxlPool, dev: &mut D) {
        self.core.advance(self.cfg.driver_loop_ns);
        let mut buf = [0u8; 64];
        let buf = &mut buf[..D::Command::WIRE_SIZE];

        // Frontend commands → device submission queue.
        for li in 0..self.links.len() {
            while self.links[li].from.try_recv(&mut self.core, pool, buf) {
                let Some(cmd) = D::Command::decode_from(buf) else {
                    continue;
                };
                let (cid, frontend) = D::command_ids(&cmd);
                if let Some(&o) = self.links[li].done.get(&cid) {
                    // Replay of a command that already executed (the
                    // frontend timed out or restarted before seeing the
                    // completion): answer from the cache, never re-execute.
                    self.stats.replays_answered += 1;
                    self.send_completion(pool, cid, frontend, o);
                    continue;
                }
                if dev.holds(frontend, cid) {
                    // Replay of a command the device still holds (the
                    // frontend timed out while it waited in the queue):
                    // the original's completion answers both, so drop it.
                    continue;
                }
                if dev.submit(self.core.clock, cmd) {
                    self.stats.forwarded += 1;
                } else {
                    // Bounce with an error so the frontend can retry.
                    self.stats.sq_full += 1;
                    self.send_completion(pool, cid, frontend, D::FAILED);
                }
            }
        }

        // Drive the device.
        let clock = self.core.clock;
        dev.process(clock, &mut PoolDma::new(pool, &self.core));

        // Device completions → frontends (including error statuses from a
        // failed device, which the engine simply propagates, §3.4).
        // Terminal outcomes enter the dedup cache; transient errors do not,
        // so a retry of the same cid really re-executes on the device.
        for comp in dev.poll_completions(self.core.clock) {
            let (cid, frontend, o) = D::completion_parts(&comp);
            if !D::is_transient(o) {
                if let Some(li) = self.link_of(frontend) {
                    let link = &mut self.links[li];
                    let (_, evicted) = link.seen.insert_evicting(cid);
                    if let Some(old) = evicted {
                        link.done.remove(&old);
                    }
                    link.done.insert(cid, o);
                }
            }
            self.send_completion(pool, cid, frontend, o);
        }

        for link in &mut self.links {
            link.from.publish_consumed(&mut self.core, pool);
        }
    }
}

impl<D: RequestDevice> Snapshottable for RequestBackend<D> {
    /// The exactly-once substrate serializes per frontend link: the dedup
    /// window (as its eviction-ordered id list) and the completion cache
    /// answering replays, sorted by command id for byte stability.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        let s = &self.stats;
        for v in [s.forwarded, s.sq_full, s.completions, s.replays_answered] {
            w.put_u64(v);
        }
        w.put_u64(self.links.len() as u64);
        for link in &self.links {
            w.put_u64(link.fe_host as u64);
            let (capacity, order, dup_hits) = link.seen.to_parts();
            w.put_u64(capacity as u64);
            w.put_u64(order.len() as u64);
            for seq in order {
                w.put_u16(seq);
            }
            w.put_u64(dup_hits);
            let mut cids: Vec<u16> = link.done.keys().copied().collect();
            cids.sort_unstable();
            w.put_u64(cids.len() as u64);
            for cid in cids {
                if let Some(&o) = link.done.get(&cid) {
                    w.put_u16(cid);
                    D::put_outcome(w, o);
                }
            }
        }
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.core.clock = SimTime(r.u64("request-be clock")?);
        self.stats.forwarded = r.u64("request-be forwarded")?;
        self.stats.sq_full = r.u64("request-be sq_full")?;
        self.stats.completions = r.u64("request-be completions")?;
        self.stats.replays_answered = r.u64("request-be replays_answered")?;
        let n = r.u64("request-be link count")?;
        if n != self.links.len() as u64 {
            return Err(SnapshotError::Corrupt("request-be link count"));
        }
        for link in self.links.iter_mut() {
            let fe_host = r.u64("request-be link fe")?;
            if fe_host != link.fe_host as u64 {
                return Err(SnapshotError::Corrupt("request-be link identity"));
            }
            let capacity = r.u64("request-be dedup capacity")? as usize;
            // The window capacity is construction-time config: it must
            // match the identically built target, which also bounds the
            // allocations below against a corrupted length field.
            if capacity != link.seen.capacity() {
                return Err(SnapshotError::Corrupt("request-be dedup capacity"));
            }
            let order_len = r.u64("request-be dedup length")?;
            if capacity == 0 || order_len > capacity as u64 {
                return Err(SnapshotError::Corrupt("request-be dedup length"));
            }
            let mut order = Vec::with_capacity(order_len as usize);
            for _ in 0..order_len {
                order.push(r.u16("request-be dedup id")?);
            }
            let dup_hits = r.u64("request-be dedup hits")?;
            link.seen = SeqWindow::from_parts(capacity, &order, dup_hits);
            // The cache and the window are two books of one fact: every
            // cached id is a remembered id. A cached id outside the window
            // would never be evicted and would answer a fresh command with
            // a stale outcome, so a disagreement is corruption.
            let done_len = r.u64("request-be cache count")?;
            if done_len > link.seen.len() as u64 {
                return Err(SnapshotError::Corrupt("request-be cache count"));
            }
            link.done.clear();
            for _ in 0..done_len {
                let cid = r.u16("request-be cache cid")?;
                if !link.seen.contains(cid) {
                    return Err(SnapshotError::Corrupt("request-be cache cid"));
                }
                let o = D::get_outcome(r)?;
                link.done.insert(cid, o);
            }
        }
        Ok(())
    }
}

impl<D: RequestDevice> DeviceEngine for RequestBackend<D> {
    fn host(&self) -> usize {
        self.host
    }
    fn core(&self) -> &HostCtx {
        &self.core
    }
    fn core_mut(&mut self) -> &mut HostCtx {
        &mut self.core
    }
    fn poll(&mut self, world: &mut EngineWorld) -> Vec<(SimTime, oasis_net::packet::Frame)> {
        let (pool, table) = D::pool_and_table(world);
        self.step(pool, &mut table[self.dev_id]);
        Vec::new()
    }
    fn on_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        let m = &D::METRICS;
        let t = self.dev_id as u32;
        sink.set(m.be_forwarded, t, self.stats.forwarded);
        sink.set(m.be_sq_full, t, self.stats.sq_full);
        sink.set(m.be_completions, t, self.stats.completions);
        sink.set(m.be_replays_answered, t, self.stats.replays_answered);
        sink.set(oasis_channel::metrics::DEDUP_DROPS, t, self.dedup_drops());
        oasis_cxl::obs::export_host_metrics(&self.core, sink);
    }
}
