//! The Oasis storage engine (§3.4).
//!
//! Mirrors the network engine's structure: a frontend driver per host gives
//! local instances a block-device interface; a backend driver runs only on
//! hosts with local SSDs and operates their submission/completion queues
//! through the native driver. Frontend and backend exchange **64 B
//! messages that mirror NVMe commands** over Oasis channels; data moves
//! through I/O buffers in shared CXL memory that the SSD DMAs directly
//! (the backend never inspects them, §3.2.1).
//!
//! Both drivers are the shared request engine
//! ([`crate::engine_request`]); this module is the SSD's
//! [`RequestDevice`] impl plus the block-I/O submit calls. Failure
//! semantics are §3.4's: a failed drive completes I/O with an error status
//! that propagates to the guest — there is no transparent failover for
//! stateful devices — and a transient media error is retried at once.
//!
//! The paper designs this engine but does not implement it; we implement it
//! fully. [`harness::StoragePod`] co-simulates a frontend host, a backend
//! host, and an SSD for the integration tests and the storage benchmarks.

pub mod harness;

pub use harness::StoragePod;

use oasis_channel::RetryPolicy;
use oasis_cxl::dma::DmaMemory;
use oasis_cxl::CxlPool;
use oasis_sim::time::SimTime;
use oasis_storage::command::{NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus};
use oasis_storage::ssd::Ssd;
use oasis_storage::BLOCK_SIZE;

use crate::config::OasisConfig;
use crate::engine::EngineWorld;
use crate::engine_request::{
    CmdBufs, RequestBackend, RequestDevice, RequestFrontend, RequestMetrics,
};
use crate::metrics as m;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// The storage frontend driver (one busy-polling core per host, §3.4).
pub type StorageFrontend = RequestFrontend<Ssd>;
/// The storage backend driver: runs only on hosts with local SSDs.
pub type StorageBackend = RequestBackend<Ssd>;

/// A completed block I/O returned to the caller.
#[derive(Clone, Debug)]
pub struct IoResult {
    /// The command id returned at submit time.
    pub cid: u16,
    /// Completion status (drive failures surface here, §3.4).
    pub status: NvmeStatus,
    /// For reads: the data, copied out of shared CXL memory.
    pub data: Option<Vec<u8>>,
}

/// The buffer a non-flush command's data occupies.
fn data_buf(cmd: &NvmeCommand) -> Option<(u64, u64)> {
    (cmd.opcode != NvmeOpcode::Flush).then(|| (cmd.data_ptr, cmd.nlb as u64 * BLOCK_SIZE))
}

impl RequestDevice for Ssd {
    type Command = NvmeCommand;
    type Completion = NvmeCompletion;
    type Outcome = NvmeStatus;
    type Result = IoResult;

    const METRICS: RequestMetrics = RequestMetrics {
        fe_submitted: m::STORAGE_FE_SUBMITTED,
        fe_completed: m::STORAGE_FE_COMPLETED,
        fe_errors: m::STORAGE_FE_ERRORS,
        fe_refused: m::STORAGE_FE_REFUSED,
        fe_retries: m::STORAGE_FE_RETRIES,
        fe_retry_exhausted: m::STORAGE_FE_RETRY_EXHAUSTED,
        fe_inflight: m::STORAGE_FE_INFLIGHT,
        fe_service_ns: m::STORAGE_FE_SERVICE_NS,
        be_forwarded: m::STORAGE_BE_FORWARDED,
        be_sq_full: m::STORAGE_BE_SQ_FULL,
        be_completions: m::STORAGE_BE_COMPLETIONS,
        be_replays_answered: m::STORAGE_BE_REPLAYS_ANSWERED,
    };
    const FAILED: NvmeStatus = NvmeStatus::DeviceFailure;
    const RESEND_TRANSIENT_AT_ONCE: bool = true;

    fn retry_policy(cfg: &OasisConfig) -> RetryPolicy {
        RetryPolicy {
            timeout: cfg.storage_retry_timeout,
            backoff: cfg.storage_retry_backoff,
            max_attempts: cfg.storage_retry_max_attempts,
        }
    }
    fn command_ids(cmd: &NvmeCommand) -> (u16, u32) {
        (cmd.cid, cmd.frontend)
    }
    fn completion_parts(c: &NvmeCompletion) -> (u16, u32, NvmeStatus) {
        (c.cid, c.frontend, c.status)
    }
    fn completion(cid: u16, frontend: u32, status: NvmeStatus) -> NvmeCompletion {
        NvmeCompletion {
            cid,
            status,
            frontend,
        }
    }
    fn is_ok(status: NvmeStatus) -> bool {
        status.is_ok()
    }
    fn is_transient(status: NvmeStatus) -> bool {
        status == NvmeStatus::MediaError
    }
    fn buffers(cmd: &NvmeCommand) -> CmdBufs {
        [data_buf(cmd), None]
    }
    fn output(cmd: &NvmeCommand) -> Option<(u64, u64)> {
        data_buf(cmd).filter(|_| cmd.opcode == NvmeOpcode::Read)
    }
    fn result(cid: u16, status: NvmeStatus, data: Option<Vec<u8>>) -> IoResult {
        IoResult { cid, status, data }
    }
    fn result_parts(res: &IoResult) -> (u16, NvmeStatus, Option<&[u8]>) {
        (res.cid, res.status, res.data.as_deref())
    }
    fn put_outcome(w: &mut SnapshotWriter, status: NvmeStatus) {
        w.put_u8(status.to_byte());
    }
    fn get_outcome(r: &mut SnapshotReader<'_>) -> Result<NvmeStatus, SnapshotError> {
        Ok(NvmeStatus::from_byte(r.u8("storage status")?))
    }

    fn pool_and_table<'w>(world: &'w mut EngineWorld<'_>) -> (&'w mut CxlPool, &'w mut [Ssd]) {
        (world.pool, world.ssds)
    }
    fn submit(&mut self, _now: SimTime, cmd: NvmeCommand) -> bool {
        Ssd::submit(self, cmd)
    }
    fn process(&mut self, now: SimTime, dma: &mut dyn DmaMemory) {
        Ssd::process(self, now, dma)
    }
    fn poll_completions(&mut self, now: SimTime) -> Vec<NvmeCompletion> {
        Ssd::poll_completions(self, now)
    }
    fn holds(&self, frontend: u32, cid: u16) -> bool {
        Ssd::holds(self, frontend, cid)
    }
}

impl StorageFrontend {
    fn submit_io(
        &mut self,
        pool: &mut CxlPool,
        ssd: usize,
        opcode: NvmeOpcode,
        slba: u64,
        nlb: u32,
        data: Option<&[u8]>,
    ) -> Option<u16> {
        let nbufs = usize::from(opcode != NvmeOpcode::Flush);
        let bytes = nlb as u64 * BLOCK_SIZE;
        self.submit(pool, ssd, bytes, nbufs, data, |cid, frontend, bufs| {
            NvmeCommand {
                opcode,
                cid,
                nsid: 1,
                data_ptr: bufs[0],
                slba,
                nlb,
                frontend,
            }
        })
    }

    /// Submit a write of whole blocks starting at `lba`.
    pub fn submit_write(
        &mut self,
        pool: &mut CxlPool,
        ssd: usize,
        lba: u64,
        data: &[u8],
    ) -> Option<u16> {
        assert_eq!(data.len() as u64 % BLOCK_SIZE, 0, "whole blocks only");
        let nlb = (data.len() as u64 / BLOCK_SIZE) as u32;
        self.submit_io(pool, ssd, NvmeOpcode::Write, lba, nlb, Some(data))
    }

    /// Submit a read of `nlb` blocks starting at `lba`.
    pub fn submit_read(
        &mut self,
        pool: &mut CxlPool,
        ssd: usize,
        lba: u64,
        nlb: u32,
    ) -> Option<u16> {
        self.submit_io(pool, ssd, NvmeOpcode::Read, lba, nlb, None)
    }

    /// Submit a flush.
    pub fn submit_flush(&mut self, pool: &mut CxlPool, ssd: usize) -> Option<u16> {
        self.submit_io(pool, ssd, NvmeOpcode::Flush, 0, 0, None)
    }
}
