//! The Oasis compute-offload engine.
//!
//! The third device class, proving the [`crate::engine`] abstraction
//! generalizes: a frontend driver per host gives local instances a
//! job-submission interface to pooled accelerators; a backend driver runs
//! only on hosts with local accelerators and operates their queues through
//! the native driver. Frontend and backend exchange **64 B job
//! descriptors** over Oasis channels; job inputs and outputs live in I/O
//! buffers in shared CXL memory that the device DMAs directly (the backend
//! never inspects them, §3.2.1).
//!
//! Both drivers are the shared request engine
//! ([`crate::engine_request`]); this module is the accelerator's
//! [`RequestDevice`] impl plus the job-submit call. Failure semantics are
//! the storage engine's (§3.4) with one difference: a transient compute
//! error completes in ~1 µs, so it waits for the armed retry deadline
//! instead of resending at once.

use oasis_accel::{AccelCommand, AccelCompletion, AccelDevice, AccelOp, AccelStatus};
use oasis_channel::RetryPolicy;
use oasis_cxl::dma::DmaMemory;
use oasis_cxl::CxlPool;
use oasis_sim::time::SimTime;

use crate::config::OasisConfig;
use crate::engine::EngineWorld;
use crate::engine_request::{
    CmdBufs, RequestBackend, RequestDevice, RequestFrontend, RequestMetrics,
};
use crate::metrics as m;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// The accel frontend driver (one busy-polling core per host).
pub type AccelFrontend = RequestFrontend<AccelDevice>;
/// The accel backend driver: runs only on hosts with local accelerators.
pub type AccelBackend = RequestBackend<AccelDevice>;

/// A completed offload job returned to the caller.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The command id returned at submit time.
    pub cid: u16,
    /// Completion status (device failures surface here, §3.4).
    pub status: AccelStatus,
    /// The operation result echoed by the device (checksum digest).
    pub result: u64,
    /// The output bytes, copied out of shared CXL memory.
    pub output: Option<Vec<u8>>,
}

/// The output buffer and the bytes the device writes to it for `cmd`.
fn output_buf(cmd: &AccelCommand) -> (u64, u64) {
    let bytes = match cmd.op {
        AccelOp::Checksum => 8,
        AccelOp::Scale => cmd.input_len as u64,
    };
    (cmd.output_ptr, bytes)
}

impl RequestDevice for AccelDevice {
    type Command = AccelCommand;
    type Completion = AccelCompletion;
    /// The status plus the `u64` result the device echoes.
    type Outcome = (AccelStatus, u64);
    type Result = JobResult;

    const METRICS: RequestMetrics = RequestMetrics {
        fe_submitted: m::ACCEL_FE_SUBMITTED,
        fe_completed: m::ACCEL_FE_COMPLETED,
        fe_errors: m::ACCEL_FE_ERRORS,
        fe_refused: m::ACCEL_FE_REFUSED,
        fe_retries: m::ACCEL_FE_RETRIES,
        fe_retry_exhausted: m::ACCEL_FE_RETRY_EXHAUSTED,
        fe_inflight: m::ACCEL_FE_INFLIGHT,
        fe_service_ns: m::ACCEL_FE_SERVICE_NS,
        be_forwarded: m::ACCEL_BE_FORWARDED,
        be_sq_full: m::ACCEL_BE_SQ_FULL,
        be_completions: m::ACCEL_BE_COMPLETIONS,
        be_replays_answered: m::ACCEL_BE_REPLAYS_ANSWERED,
    };
    const FAILED: (AccelStatus, u64) = (AccelStatus::DeviceFailure, 0);
    const RESEND_TRANSIENT_AT_ONCE: bool = false;

    fn retry_policy(cfg: &OasisConfig) -> RetryPolicy {
        RetryPolicy {
            timeout: cfg.accel_retry_timeout,
            backoff: cfg.accel_retry_backoff,
            max_attempts: cfg.accel_retry_max_attempts,
        }
    }
    fn command_ids(cmd: &AccelCommand) -> (u16, u32) {
        (cmd.cid, cmd.frontend)
    }
    fn completion_parts(c: &AccelCompletion) -> (u16, u32, (AccelStatus, u64)) {
        (c.cid, c.frontend, (c.status, c.result))
    }
    fn completion(
        cid: u16,
        frontend: u32,
        (status, result): (AccelStatus, u64),
    ) -> AccelCompletion {
        AccelCompletion {
            cid,
            status,
            result,
            frontend,
        }
    }
    fn is_ok((status, _): (AccelStatus, u64)) -> bool {
        status.is_ok()
    }
    fn is_transient((status, _): (AccelStatus, u64)) -> bool {
        status == AccelStatus::ComputeError
    }
    fn buffers(cmd: &AccelCommand) -> CmdBufs {
        [
            Some((cmd.input_ptr, cmd.input_len as u64)),
            Some(output_buf(cmd)),
        ]
    }
    fn output(cmd: &AccelCommand) -> Option<(u64, u64)> {
        Some(output_buf(cmd))
    }
    fn result(
        cid: u16,
        (status, result): (AccelStatus, u64),
        output: Option<Vec<u8>>,
    ) -> JobResult {
        JobResult {
            cid,
            status,
            result,
            output,
        }
    }
    fn result_parts(res: &JobResult) -> (u16, (AccelStatus, u64), Option<&[u8]>) {
        (res.cid, (res.status, res.result), res.output.as_deref())
    }
    fn put_outcome(w: &mut SnapshotWriter, (status, result): (AccelStatus, u64)) {
        w.put_u8(status.to_byte());
        w.put_u64(result);
    }
    fn get_outcome(r: &mut SnapshotReader<'_>) -> Result<(AccelStatus, u64), SnapshotError> {
        let status = AccelStatus::from_byte(r.u8("accel status")?);
        Ok((status, r.u64("accel result")?))
    }

    fn pool_and_table<'w>(
        world: &'w mut EngineWorld<'_>,
    ) -> (&'w mut CxlPool, &'w mut [AccelDevice]) {
        (world.pool, world.accels)
    }
    fn submit(&mut self, now: SimTime, cmd: AccelCommand) -> bool {
        AccelDevice::submit(self, now, cmd)
    }
    fn process(&mut self, now: SimTime, dma: &mut dyn DmaMemory) {
        AccelDevice::process(self, now, dma)
    }
    fn poll_completions(&mut self, now: SimTime) -> Vec<AccelCompletion> {
        AccelDevice::poll_completions(self, now)
    }
    fn holds(&self, frontend: u32, cid: u16) -> bool {
        AccelDevice::holds(self, frontend, cid)
    }
}

impl AccelFrontend {
    /// Submit an offload job. Returns the command id, or `None` when
    /// backpressured (no buffers / channel full) — the caller retries on a
    /// later tick.
    pub fn submit_job(
        &mut self,
        pool: &mut CxlPool,
        dev: usize,
        op: AccelOp,
        arg: u32,
        input: &[u8],
    ) -> Option<u16> {
        // An empty job is refused like an oversized one.
        let bytes = match input.len() {
            0 => u64::MAX,
            n => n as u64,
        };
        self.submit(pool, dev, bytes, 2, Some(input), |cid, frontend, bufs| {
            AccelCommand {
                op,
                cid,
                arg,
                input_ptr: bufs[0],
                output_ptr: bufs[1],
                input_len: input.len() as u32,
                frontend,
            }
        })
    }
}
