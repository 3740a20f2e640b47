//! Request-engine frontend driver: the submit/complete interface instances
//! see.

use oasis_channel::{Receiver, RetryState, Sender};
use oasis_cxl::{lines_covering, CxlPool, HostCtx};
use oasis_sim::detmap::DetMap;
use oasis_sim::time::{SimDuration, SimTime};

use crate::config::OasisConfig;
use crate::datapath::BufferArea;
use crate::engine::{DeviceEngine, EngineFault, EngineWorld, WireDescriptor};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter, Snapshottable};

use super::RequestDevice;

struct Pending<C> {
    /// Target device (for resubmission routing).
    dev: usize,
    /// The full command, kept for retransmission; its buffers are derived
    /// from it.
    cmd: C,
    /// Retry pacing for this command.
    retry: RetryState,
    /// First submission time (service-time telemetry; retries keep it).
    #[cfg(feature = "obs")]
    issued: SimTime,
}

/// One channel link to a device's backend.
struct DevLink {
    dev: usize,
    to: Sender,
    from: Receiver,
}

/// Frontend counters.
#[derive(Clone, Debug, Default)]
pub struct RequestFeStats {
    /// Commands submitted.
    pub submitted: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Completions with error status.
    pub errors: u64,
    /// Submissions refused (no buffer / channel full).
    pub refused: u64,
    /// Commands resubmitted after a completion timeout or transient device
    /// error (§3.4 recovery).
    pub retries: u64,
    /// Commands failed to the caller after exhausting the retry budget.
    pub retry_exhausted: u64,
}

/// The frontend driver (one busy-polling core per host, §3.4).
pub struct RequestFrontend<D: RequestDevice> {
    /// Host this frontend runs on.
    pub host: usize,
    /// The polling core.
    pub core: HostCtx,
    /// Counters.
    pub stats: RequestFeStats,
    cfg: OasisConfig,
    links: Vec<DevLink>,
    data_area: BufferArea,
    pending: DetMap<u16, Pending<D::Command>>,
    done: Vec<D::Result>,
    next_cid: u16,
    /// Testing knob for the sanitizer regression harness: skip the
    /// invalidation in [`Self::release_bufs`], reintroducing the stale-read
    /// bug the release flush fixed.
    #[cfg(feature = "sanitize")]
    skip_release_invalidate: bool,
    /// Submit-to-completion latency, retries included (nanoseconds).
    #[cfg(feature = "obs")]
    service_ns: oasis_obs::ObsHistogram,
}

impl<D: RequestDevice> RequestFrontend<D> {
    /// Create a frontend with its I/O data buffer area in pool memory.
    pub fn new(host: usize, core: HostCtx, cfg: OasisConfig, data_area: BufferArea) -> Self {
        RequestFrontend {
            host,
            core,
            stats: RequestFeStats::default(),
            cfg,
            links: Vec::new(),
            data_area,
            pending: DetMap::default(),
            done: Vec::new(),
            next_cid: 0,
            #[cfg(feature = "sanitize")]
            skip_release_invalidate: false,
            #[cfg(feature = "obs")]
            service_ns: oasis_obs::ObsHistogram::new(),
        }
    }

    /// Reintroduce the pre-fix buffer-release behaviour (no invalidation)
    /// so the sanitizer regression harness can prove it re-detects the
    /// stale-read bug. Test-only; exists only with the `sanitize` feature.
    #[cfg(feature = "sanitize")]
    pub fn set_skip_release_invalidate(&mut self, skip: bool) {
        self.skip_release_invalidate = skip;
    }

    /// Wire a channel pair to device `dev`'s backend.
    pub fn add_device_link(&mut self, dev: usize, to: Sender, from: Receiver) {
        self.links.push(DevLink { dev, to, from });
    }

    fn link_idx(&self, dev: usize) -> Option<usize> {
        self.links.iter().position(|l| l.dev == dev)
    }

    /// Invalidate a finished command's buffer lines and return its buffers
    /// for reuse. The next user's data arrives by device DMA straight into
    /// pool memory, so any line left cached here — in particular the clean
    /// copies `clwb` keeps after staging an input — would read back stale
    /// (§3.2.1 software coherence).
    fn release_bufs(&mut self, pool: &mut CxlPool, cmd: &D::Command) {
        for (buf, bytes) in D::buffers(cmd).into_iter().flatten() {
            #[cfg(feature = "sanitize")]
            if self.skip_release_invalidate {
                self.data_area.free(buf);
                continue;
            }
            for la in lines_covering(buf, bytes) {
                self.core.clflushopt(pool, la);
            }
            self.data_area.free(buf);
        }
    }

    /// Put `cmd` on the wire to `dev`; `false` when the channel is full.
    fn send(&mut self, pool: &mut CxlPool, li: usize, cmd: &D::Command) -> bool {
        let mut wire = [0u8; 64];
        let wire = &mut wire[..D::Command::WIRE_SIZE];
        cmd.encode_into(wire);
        let link = &mut self.links[li];
        let sent = link
            .to
            .try_send(&mut self.core, pool, wire)
            .unwrap_or(false);
        if sent {
            link.to.flush(&mut self.core, pool);
        }
        sent
    }

    /// Put `cmd` back on the wire to `dev`. A full channel is fine: the
    /// armed deadline fires again later.
    fn resend(&mut self, pool: &mut CxlPool, dev: usize, cmd: &D::Command) {
        if let Some(li) = self.link_idx(dev) {
            self.send(pool, li, cmd);
        }
    }

    /// Submit one command to `dev`: allocate `nbufs` buffers of up to
    /// `bytes` each, stage `input` in the first, and send the command
    /// `make` builds from `(cid, frontend, buffers)`. Returns the command
    /// id, or `None` when refused (no buffers / channel full) — the caller
    /// retries later.
    pub(crate) fn submit(
        &mut self,
        pool: &mut CxlPool,
        dev: usize,
        bytes: u64,
        nbufs: usize,
        input: Option<&[u8]>,
        make: impl FnOnce(u16, u32, [u64; 2]) -> D::Command,
    ) -> Option<u16> {
        let li = self.link_idx(dev)?;
        if nbufs > 0 && bytes > self.data_area.buf_size() {
            self.stats.refused += 1;
            return None;
        }
        let mut bufs = [0u64; 2];
        for i in 0..nbufs {
            match self.data_area.alloc() {
                Some(b) => bufs[i] = b,
                None => {
                    for &b in bufs[..i].iter().rev() {
                        self.data_area.free(b);
                    }
                    self.stats.refused += 1;
                    return None;
                }
            }
        }
        // Stage the input in shared CXL memory and write it back so the
        // device's DMA sees it (§3.2.1).
        if let Some(data) = input {
            let len = data.len() as u64;
            self.core.write(pool, bufs[0], data);
            for la in lines_covering(bufs[0], len) {
                self.core.clwb(pool, la);
            }
            self.core.publish(pool, bufs[0], len);
        }
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        let cmd = make(cid, self.host as u32, bufs);
        if !self.send(pool, li, &cmd) {
            for &b in bufs[..nbufs].iter().rev() {
                self.data_area.free(b);
            }
            self.stats.refused += 1;
            return None;
        }
        self.stats.submitted += 1;
        let retry = RetryState::armed(&D::retry_policy(&self.cfg), self.core.clock);
        self.pending.insert(
            cid,
            Pending {
                dev,
                cmd,
                retry,
                #[cfg(feature = "obs")]
                issued: self.core.clock,
            },
        );
        Some(cid)
    }

    /// Retire a finished command: release its buffers, count it, and queue
    /// its result for the caller.
    fn finish(
        &mut self,
        pool: &mut CxlPool,
        cid: u16,
        p: &Pending<D::Command>,
        outcome: D::Outcome,
    ) {
        // Copy any output out of shared memory first. The device DMA'd it
        // into the pool; any line of the buffer still cached here is stale
        // by definition.
        let data = match D::output(&p.cmd) {
            Some((buf, bytes)) if D::is_ok(outcome) => {
                self.core.expect_fresh(pool, buf, bytes);
                let mut out = vec![0u8; bytes as usize];
                self.core.read_stream(pool, buf, &mut out);
                Some(out)
            }
            _ => None,
        };
        self.release_bufs(pool, &p.cmd);
        self.stats.completed += 1;
        #[cfg(feature = "obs")]
        self.service_ns
            .record((self.core.clock - p.issued).as_nanos());
        if !D::is_ok(outcome) {
            self.stats.errors += 1;
        }
        self.done.push(D::result(cid, outcome, data));
    }

    /// One polling round: drain completion channels, then resubmit any
    /// command whose completion deadline has passed (a device in a fault
    /// window swallows commands whole; the backend deduplicates replays,
    /// so resubmission is safe even when the original is merely slow).
    pub fn step(&mut self, pool: &mut CxlPool) {
        self.core.advance(self.cfg.driver_loop_ns);
        let policy = D::retry_policy(&self.cfg);
        let mut buf = [0u8; 64];
        let buf = &mut buf[..D::Completion::WIRE_SIZE];
        for li in 0..self.links.len() {
            while self.links[li].from.try_recv(&mut self.core, pool, buf) {
                let Some(comp) = D::Completion::decode_from(buf) else {
                    continue;
                };
                let (cid, _, outcome) = D::completion_parts(&comp);
                let Some(mut p) = self.pending.remove(&cid) else {
                    continue;
                };
                if D::is_transient(outcome) && p.retry.can_retry(&policy) {
                    if D::RESEND_TRANSIENT_AT_ONCE {
                        // Burn an attempt and resubmit at once instead of
                        // surfacing the transient error.
                        p.retry.rearm(&policy, self.core.clock);
                        self.stats.retries += 1;
                        let (dev, cmd) = (p.dev, p.cmd);
                        self.pending.insert(cid, p);
                        self.resend(pool, dev, &cmd);
                    } else {
                        // Transient fault that completes fast: drop the
                        // errored completion and let the armed deadline
                        // resubmit with backoff. Resending at once would
                        // burn the whole budget inside the fault window.
                        self.pending.insert(cid, p);
                    }
                    continue;
                }
                self.finish(pool, cid, &p, outcome);
            }
            self.links[li].from.publish_consumed(&mut self.core, pool);
        }

        // Retry timers: resubmit expired commands, fail exhausted ones.
        let now = self.core.clock;
        let mut expired: Vec<u16> = self
            .pending
            .iter()
            .filter(|(_, p)| p.retry.expired(now))
            .map(|(cid, _)| *cid)
            .collect();
        expired.sort_unstable();
        for cid in expired {
            let can = self
                .pending
                .get(&cid)
                .is_some_and(|p| p.retry.can_retry(&policy));
            if can {
                let Some(p) = self.pending.get_mut(&cid) else {
                    continue;
                };
                p.retry.rearm(&policy, now);
                let (dev, cmd) = (p.dev, p.cmd);
                self.stats.retries += 1;
                self.resend(pool, dev, &cmd);
            } else {
                let Some(p) = self.pending.remove(&cid) else {
                    continue;
                };
                self.stats.retry_exhausted += 1;
                self.finish(pool, cid, &p, D::FAILED);
            }
        }
    }

    /// After a host restart, rearm and resubmit every in-flight command:
    /// the submission intent survives the crash (it lives in this driver's
    /// state), but completions delivered into the lost cache did not. The
    /// backend's dedup window answers already-executed replays from its
    /// completion cache, so none of them runs twice.
    pub fn replay_pending(&mut self, pool: &mut CxlPool) {
        let policy = D::retry_policy(&self.cfg);
        let now = self.core.clock;
        let mut cids: Vec<u16> = self.pending.keys().copied().collect();
        cids.sort_unstable();
        for cid in cids {
            let Some(p) = self.pending.get_mut(&cid) else {
                continue;
            };
            p.retry = RetryState::armed(&policy, now);
            let (dev, cmd) = (p.dev, p.cmd);
            self.stats.retries += 1;
            self.resend(pool, dev, &cmd);
        }
    }

    /// Take completed commands.
    pub fn take_completions(&mut self) -> Vec<D::Result> {
        std::mem::take(&mut self.done)
    }

    /// Commands still in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

impl<D: RequestDevice> Snapshottable for RequestFrontend<D> {
    /// In-flight commands serialize as their full 64 B wire descriptor plus
    /// routing and retry state; buffer addresses and sizes are derived and
    /// rebuilt from the descriptor on restore. The `issued` timestamp slot
    /// is written unconditionally (zero without the `obs` feature) so the
    /// byte format is feature-independent. The service histogram is a pure
    /// observer and is excluded.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.core.clock.as_nanos());
        let s = &self.stats;
        for v in [
            s.submitted,
            s.completed,
            s.errors,
            s.refused,
            s.retries,
            s.retry_exhausted,
        ] {
            w.put_u64(v);
        }
        w.put_u16(self.next_cid);
        let mut cids: Vec<u16> = self.pending.keys().copied().collect();
        cids.sort_unstable();
        w.put_u64(cids.len() as u64);
        let mut wire = [0u8; 64];
        let wire = &mut wire[..D::Command::WIRE_SIZE];
        for cid in cids {
            if let Some(p) = self.pending.get(&cid) {
                w.put_u16(cid);
                p.cmd.encode_into(wire);
                w.put_bytes(wire);
                w.put_u64(p.dev as u64);
                let (attempts, deadline, wait) = p.retry.to_parts();
                w.put_u32(attempts);
                w.put_u64(deadline.as_nanos());
                w.put_u64(wait.as_nanos());
                #[cfg(feature = "obs")]
                w.put_u64(p.issued.as_nanos());
                #[cfg(not(feature = "obs"))]
                w.put_u64(0);
            }
        }
        w.put_u64(self.done.len() as u64);
        for res in &self.done {
            let (cid, outcome, data) = D::result_parts(res);
            w.put_u16(cid);
            D::put_outcome(w, outcome);
            match data {
                Some(data) => {
                    w.put_bool(true);
                    w.put_bytes(data);
                }
                None => w.put_bool(false),
            }
        }
        self.data_area.snapshot_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.core.clock = SimTime(r.u64("request-fe clock")?);
        self.stats.submitted = r.u64("request-fe submitted")?;
        self.stats.completed = r.u64("request-fe completed")?;
        self.stats.errors = r.u64("request-fe errors")?;
        self.stats.refused = r.u64("request-fe refused")?;
        self.stats.retries = r.u64("request-fe retries")?;
        self.stats.retry_exhausted = r.u64("request-fe retry_exhausted")?;
        self.next_cid = r.u16("request-fe next cid")?;
        let n = r.u64("request-fe pending count")?;
        self.pending.clear();
        for _ in 0..n {
            let cid = r.u16("request-fe pending cid")?;
            let blob = r.bytes("request-fe pending cmd")?;
            if blob.len() != D::Command::WIRE_SIZE {
                return Err(SnapshotError::Corrupt("request-fe pending cmd"));
            }
            let cmd = D::Command::decode_from(blob)
                .ok_or(SnapshotError::Corrupt("request-fe pending cmd"))?;
            if D::command_ids(&cmd).0 != cid {
                return Err(SnapshotError::Corrupt("request-fe pending cid"));
            }
            let dev = r.u64("request-fe pending dev")? as usize;
            let attempts = r.u32("request-fe pending attempts")?;
            let deadline = SimTime(r.u64("request-fe pending deadline")?);
            let wait = SimDuration::from_nanos(r.u64("request-fe pending wait")?);
            let _issued_ns = r.u64("request-fe pending issued")?;
            self.pending.insert(
                cid,
                Pending {
                    dev,
                    cmd,
                    retry: RetryState::from_parts(attempts, deadline, wait),
                    #[cfg(feature = "obs")]
                    issued: SimTime(_issued_ns),
                },
            );
        }
        let n = r.u64("request-fe done count")?;
        self.done.clear();
        for _ in 0..n {
            let cid = r.u16("request-fe done cid")?;
            let outcome = D::get_outcome(r)?;
            let data = if r.bool("request-fe done data flag")? {
                Some(r.bytes("request-fe done data")?.to_vec())
            } else {
                None
            };
            self.done.push(D::result(cid, outcome, data));
        }
        self.data_area.restore_state(r)?;
        Ok(())
    }
}

impl<D: RequestDevice> DeviceEngine for RequestFrontend<D> {
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
        self.step(world.pool);
        Vec::new()
    }
    fn on_fault(&mut self, fault: EngineFault, pool: &mut CxlPool) {
        // §3.4: after a host restart, commands that were in flight when the
        // host crashed are replayed; the backend's dedup window answers
        // duplicates it already executed.
        if fault == EngineFault::HostRestart {
            self.replay_pending(pool);
        }
    }
    fn on_metrics(&self, sink: &mut oasis_obs::MetricSink) {
        let m = &D::METRICS;
        let t = self.host as u32;
        sink.set(m.fe_submitted, t, self.stats.submitted);
        sink.set(m.fe_completed, t, self.stats.completed);
        sink.set(m.fe_errors, t, self.stats.errors);
        sink.set(m.fe_refused, t, self.stats.refused);
        sink.set(m.fe_retries, t, self.stats.retries);
        sink.set(m.fe_retry_exhausted, t, self.stats.retry_exhausted);
        sink.set(m.fe_inflight, t, self.pending.len() as u64);
        #[cfg(feature = "obs")]
        sink.merge_hist(m.fe_service_ns, t, &self.service_ns);
        oasis_cxl::obs::export_host_metrics(&self.core, sink);
    }
}
