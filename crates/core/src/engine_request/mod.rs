//! The request/completion engine shared by storage (§3.4) and compute
//! offload.
//!
//! §3.1's split, written once: a [`RequestFrontend`] per consuming host
//! gives local instances a submit/complete interface, a [`RequestBackend`]
//! per device-attached host operates the device's queues through its native
//! driver, and 64 B command/completion descriptors flow between them over
//! Oasis channels. Data moves through I/O buffers in shared CXL memory that
//! the device DMAs directly; the backend never inspects them (§3.2.1).
//!
//! Both halves carry the full failure protocol: retry pacing with backoff,
//! resubmission of swallowed commands, crash-restart replay, and a backend
//! dedup window plus completion cache so no command executes twice. A
//! failed device propagates an error to the guest — no transparent failover
//! for stateful devices.
//!
//! A device class plugs in by implementing [`RequestDevice`], which carries
//! only what really differs between classes: the descriptor pair, the
//! device's queue calls, the retry policy, the buffers a command occupies,
//! which status is transient, what a completion reports, and the metric
//! names. `engine_storage` (SSDs) and `engine_accel` (accelerators) are
//! exactly those two impls.

pub mod backend;
pub mod frontend;

pub use backend::{RequestBackend, RequestBeStats};
pub use frontend::{RequestFeStats, RequestFrontend};

use oasis_channel::RetryPolicy;
use oasis_cxl::dma::DmaMemory;
use oasis_cxl::CxlPool;
use oasis_sim::time::SimTime;

use crate::config::OasisConfig;
use crate::engine::{EngineWorld, WireDescriptor};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// The metric names one device class exports. Frontend metrics are tagged
/// by host, backend metrics by device id.
pub struct RequestMetrics {
    /// Commands submitted.
    pub fe_submitted: &'static str,
    /// Completions delivered.
    pub fe_completed: &'static str,
    /// Completions with error status.
    pub fe_errors: &'static str,
    /// Submissions refused.
    pub fe_refused: &'static str,
    /// Commands resubmitted.
    pub fe_retries: &'static str,
    /// Commands failed after exhausting the retry budget.
    pub fe_retry_exhausted: &'static str,
    /// Commands in flight at export time.
    pub fe_inflight: &'static str,
    /// Submit-to-completion service-time histogram (`obs` only).
    pub fe_service_ns: &'static str,
    /// Commands forwarded to the device.
    pub be_forwarded: &'static str,
    /// Commands bounced by a full submission queue.
    pub be_sq_full: &'static str,
    /// Completions returned to frontends.
    pub be_completions: &'static str,
    /// Replays answered from the completion cache.
    pub be_replays_answered: &'static str,
}

/// The pool buffers a command occupies, as `(address, bytes)` in
/// allocation order.
pub type CmdBufs = [Option<(u64, u64)>; 2];

/// A pooled device class driven through the request engine: its 64 B
/// descriptor pair, its native queue calls, and the per-class policy the
/// engine cannot derive.
pub trait RequestDevice: Sized {
    /// Descriptor sent frontend → backend.
    type Command: WireDescriptor + Copy;
    /// Descriptor sent backend → frontend.
    type Completion: WireDescriptor;
    /// What a completion reports, and what the backend's completion cache
    /// remembers per command id.
    type Outcome: Copy;
    /// What the frontend hands back to its caller.
    type Result;

    /// Metric-name table.
    const METRICS: RequestMetrics;
    /// The outcome of a command bounced by a full queue or failed after
    /// its retry budget ran out.
    const FAILED: Self::Outcome;
    /// On a transient outcome, resend at once (`true`) or leave the command
    /// to its armed retry deadline (`false`).
    const RESEND_TRANSIENT_AT_ONCE: bool;

    /// Retry pacing for this class, from the pod configuration.
    fn retry_policy(cfg: &OasisConfig) -> RetryPolicy;
    /// A command's `(cid, frontend)` routing fields.
    fn command_ids(cmd: &Self::Command) -> (u16, u32);
    /// A completion as `(cid, frontend, outcome)`.
    fn completion_parts(comp: &Self::Completion) -> (u16, u32, Self::Outcome);
    /// Build a completion from its parts.
    fn completion(cid: u16, frontend: u32, outcome: Self::Outcome) -> Self::Completion;
    /// Did the command succeed?
    fn is_ok(outcome: Self::Outcome) -> bool;
    /// Is this a transient error worth a retry of the same command id?
    fn is_transient(outcome: Self::Outcome) -> bool;
    /// The pool buffers `cmd` occupies.
    fn buffers(cmd: &Self::Command) -> CmdBufs;
    /// The buffer a successful `cmd` leaves output in, if any.
    fn output(cmd: &Self::Command) -> Option<(u64, u64)>;
    /// Build the caller-facing result.
    fn result(cid: u16, outcome: Self::Outcome, data: Option<Vec<u8>>) -> Self::Result;
    /// A result as `(cid, outcome, data)`.
    fn result_parts(res: &Self::Result) -> (u16, Self::Outcome, Option<&[u8]>);
    /// Serialize an outcome.
    fn put_outcome(w: &mut SnapshotWriter, outcome: Self::Outcome);
    /// Deserialize an outcome.
    fn get_outcome(r: &mut SnapshotReader<'_>) -> Result<Self::Outcome, SnapshotError>;

    /// The pool and this class's device table, borrowed side by side.
    fn pool_and_table<'w>(world: &'w mut EngineWorld<'_>) -> (&'w mut CxlPool, &'w mut [Self]);
    /// Queue a command arriving at `now`; `false` when the queue is full.
    fn submit(&mut self, now: SimTime, cmd: Self::Command) -> bool;
    /// Execute queued commands and retire finished ones up to `now`.
    fn process(&mut self, now: SimTime, dma: &mut dyn DmaMemory);
    /// Drain completions that finished by `now`.
    fn poll_completions(&mut self, now: SimTime) -> Vec<Self::Completion>;
    /// Is command `cid` from `frontend` still inside the device, so that
    /// its own completion is still to come?
    fn holds(&self, frontend: u32, cid: u16) -> bool;
}
