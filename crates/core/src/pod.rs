//! The pod runtime: one deterministic co-simulation of an entire Oasis pod.
//!
//! A [`Pod`] owns the CXL pool, the hosts' polling cores (frontend and
//! backend drivers, or the Junction baseline driver), the NICs, the ToR
//! switch, the instances, the pod-wide allocator, and any external client
//! endpoints. [`Pod::run`] registers every component as an actor on an
//! [`oasis_sim::sched::Scheduler`] and dispatches whichever actor has the
//! earliest wake time (ties break in registration order), exactly like the
//! co-simulated microbenchmarks — so cross-host latencies, failover
//! timelines, and CXL link traffic all emerge from the same component
//! models the unit tests exercise. Device engines are stepped uniformly
//! through [`crate::engine::DeviceEngine`]; the runtime has no per-engine
//! special cases, which is what lets a new device class (see
//! [`crate::engine_accel`]) plug in without touching the loop.
//!
//! Instance launch (placement + registration) is performed synchronously at
//! build time, as a cloud control plane would before a VM starts; the
//! *runtime* control paths that the paper measures — link-failure
//! detection, telemetry, failover rerouting, graceful migration — all flow
//! through message channels with simulated timing.

use oasis_accel::{AccelCommand, AccelConfig, AccelDevice, AccelOp};
use oasis_cxl::pool::{PortId, TrafficClass};
use oasis_cxl::region::Region;
use oasis_cxl::{CxlPool, HostCtx, RegionAllocator};
use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::nic::{Nic, NicConfig};
use oasis_net::packet::Frame;
use oasis_net::switch::Switch;
use oasis_sim::event::EventQueue;
use oasis_sim::fault::{
    AccelFaultMode, FaultInjector, FaultKind, FaultPlan, PacketFaultState, SsdFaultMode,
};
use oasis_sim::sched::{Scheduler, StepCtx, StepOutcome};
use oasis_sim::shard::{Envelope, Outgoing, ShardWorld};
use oasis_sim::time::{SimDuration, SimTime};

use oasis_storage::command::NvmeCommand;
use oasis_storage::ssd::{Ssd, SsdConfig};

use crate::allocator::{AllocCommand, PodAllocator};
use crate::baseline::LocalDriver;
use crate::config::{BufferPlacement, OasisConfig};
use crate::datapath::{alloc_descriptor_channel, alloc_net_channel, BufferArea};
use crate::engine::{DeviceEngine, EngineFault, EngineWorld};
use crate::engine_accel::{AccelBackend, AccelFrontend, JobResult};
use crate::engine_net::{BackendDriver, FrontendDriver};
use crate::engine_storage::{StorageBackend, StorageFrontend};
use crate::error::PodError;
use crate::instance::{AppKind, Instance};
use crate::snapshot::{
    SnapshotError, SnapshotReader, SnapshotSection, SnapshotWriter, Snapshottable,
};

/// An external client attached directly to a switch port (load generators,
/// echo clients, trace replayers — implemented in `oasis-apps`).
pub trait Endpoint {
    /// When this endpoint next wants to act ([`SimTime::MAX`] when idle).
    fn next_time(&self) -> SimTime;
    /// Act at `now`; emitted frames enter the switch on this endpoint's
    /// port.
    fn poll(&mut self, now: SimTime) -> Vec<Frame>;
    /// A frame arrives from the switch at `at`.
    fn deliver(&mut self, at: SimTime, frame: Frame);
}

/// The driver serving a host's instances.
pub enum HostDriver {
    /// Oasis frontend (instances may be served by remote NICs).
    Oasis(FrontendDriver),
    /// Junction-style baseline: combined driver + local NIC.
    Local(LocalDriver),
}

enum PortOwner {
    Nic(usize),
    Endpoint(usize),
    /// Inter-pod uplink by index: frames egressing here leave the pod and
    /// are relayed by the fleet layer (`crate::fleet`).
    Uplink(usize),
}

enum PodEvent {
    /// Operator/failure injection: disable the switch port of a NIC
    /// (§5.3's failure method).
    DisableNicPort(usize),
    /// The NIC's PHY notices carrier loss (after `link_detect`).
    LinkDown(usize),
    /// Repair: re-enable the port.
    EnableNicPort(usize),
    /// Carrier restored.
    LinkUp(usize),
    /// Start a graceful migration of an instance to a NIC (§3.3.4).
    Migrate(Ipv4Addr, u32),
    /// Crash a host: all of its polling cores stop, and its devices go
    /// silent. The allocator infers the failure from missing telemetry
    /// (§3.5).
    FailHost(usize),
    /// A crashed host boots again: cores resume (cold caches) from the
    /// restart time and the storage frontend replays in-flight commands.
    RestartHost(usize),
    /// Install probabilistic drop/corrupt/duplicate on a NIC's switch port
    /// (the state self-expires).
    SetPacketFault(usize, PacketFaultState),
    /// Add extra CXL load-to-use latency on every core of a host.
    CxlSlowStart(usize, u64),
    /// Remove the extra latency again.
    CxlSlowEnd(usize, u64),
    /// Freeze every core of a host for the duration (link retraining).
    CxlStall(usize, SimDuration),
    /// Open an SSD command-swallowing window closing at the given time.
    SsdTimeoutUntil(usize, SimTime),
    /// Open an SSD read-media-error window closing at the given time.
    SsdReadErrorsUntil(usize, SimTime),
    /// Open an accelerator job-swallowing window closing at the given time.
    AccelTimeoutUntil(usize, SimTime),
    /// Open an accelerator compute-error window closing at the given time.
    AccelErrorsUntil(usize, SimTime),
    /// A frame arrives from another pod on the given uplink: it enters the
    /// local switch on the uplink's port, exactly as a wire delivery would.
    UplinkFrame(usize, Frame),
}

/// A handle to one device engine, resolved against the pod's engine tables
/// at dispatch time (actors cannot hold borrows across dispatches).
#[derive(Clone, Copy)]
enum EngineRef {
    /// Per-host driver (Oasis frontend or Junction baseline).
    Driver(usize),
    /// Net backend by index.
    NetBackend(usize),
    /// Storage frontend by host.
    StorageFe(usize),
    /// Storage backend by index.
    StorageBe(usize),
    /// Accel frontend by host.
    AccelFe(usize),
    /// Accel backend by index.
    AccelBe(usize),
}

/// What a scheduler actor id stands for.
#[derive(Clone, Copy)]
enum ActorKind {
    /// A device-engine polling core, stepped through [`DeviceEngine`].
    Engine(EngineRef),
    /// The pod-wide allocator service.
    Allocator,
    /// A client endpoint by index.
    Endpoint(usize),
    /// The pod's operator/fault event queue.
    Events,
}

/// Base offsets of each actor class in the scheduler's id space. Ids are
/// assigned in registration order, which is also the tie-break order: on
/// equal wake times the lowest id runs first, reproducing the legacy
/// earliest-clock scan's first-considered-wins rule.
struct ActorMap {
    driver_base: usize,
    net_backend_base: usize,
    endpoint_base: usize,
    storage_fe_base: usize,
    storage_be_base: usize,
    accel_fe_base: usize,
    accel_be_base: usize,
}

/// Visit every device engine on `host` as `&mut dyn DeviceEngine`, in
/// actor registration order. A free function over the split engine tables
/// so callers can destructure [`Pod`] and keep the pool borrowed alongside.
// One parameter per engine table is the point: the split borrows are what
// let the pool stay mutably borrowed next to them.
#[allow(clippy::too_many_arguments)]
fn each_host_engine(
    drivers: &mut [HostDriver],
    backends: &mut [BackendDriver],
    storage_frontends: &mut [Option<StorageFrontend>],
    storage_backends: &mut [StorageBackend],
    accel_frontends: &mut [Option<AccelFrontend>],
    accel_backends: &mut [AccelBackend],
    host: usize,
    mut f: impl FnMut(&mut dyn DeviceEngine),
) {
    match &mut drivers[host] {
        HostDriver::Oasis(fe) => f(fe),
        HostDriver::Local(ld) => f(ld),
    }
    for be in backends.iter_mut().filter(|b| b.host == host) {
        f(be);
    }
    if let Some(fe) = storage_frontends[host].as_mut() {
        f(fe);
    }
    for be in storage_backends.iter_mut().filter(|b| b.host == host) {
        f(be);
    }
    if let Some(fe) = accel_frontends[host].as_mut() {
        f(fe);
    }
    for be in accel_backends.iter_mut().filter(|b| b.host == host) {
        f(be);
    }
}

/// A block volume carved for an instance by the pod-wide allocator.
#[derive(Clone, Copy, Debug)]
pub struct VolumeHandle {
    /// Owning instance.
    pub inst: usize,
    /// SSD the volume lives on.
    pub ssd: usize,
    /// First device block.
    pub base_block: u64,
    /// Length in blocks.
    pub blocks: u64,
}

/// Ambient-telemetry accumulators for the pod runtime (empty with `obs`
/// off; the paired no-op methods keep every call site unconditional).
#[derive(Default)]
struct PodObs {
    /// Scheduler stats folded across [`Pod::run`] calls (each run builds a
    /// fresh [`Scheduler`]; actor registration order is fixed per pod
    /// shape, so per-actor tallies line up).
    #[cfg(feature = "obs")]
    sched: oasis_sim::sched::SchedStats,
    /// Idle-skip fast-forwards taken by the dispatch loop.
    #[cfg(feature = "obs")]
    idle_skips: u64,
    /// Sim nanoseconds saved per idle-skip.
    #[cfg(feature = "obs")]
    idle_skip_ns: oasis_obs::ObsHistogram,
}

impl PodObs {
    #[cfg(feature = "obs")]
    #[inline]
    fn note_idle_skip(&mut self, from: SimTime, to: SimTime) {
        self.idle_skips += 1;
        self.idle_skip_ns.record((to - from).as_nanos());
    }
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn note_idle_skip(&mut self, _from: SimTime, _to: SimTime) {}

    #[cfg(feature = "obs")]
    #[inline]
    fn fold_sched(&mut self, sched: &oasis_sim::sched::Scheduler) {
        self.sched.merge(sched.stats());
    }
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn fold_sched(&mut self, _sched: &oasis_sim::sched::Scheduler) {}

    /// Export the collected ambient stats (no-op with `obs` off: the
    /// corresponding snapshot entries simply do not exist).
    #[cfg(feature = "obs")]
    fn export(&self, sink: &mut oasis_obs::MetricSink) {
        use oasis_sim::metrics as sm;
        sink.set(sm::SCHED_DISPATCHES, 0, self.sched.dispatches);
        sink.set(sm::SCHED_STALE_SKIPS, 0, self.sched.stale_skips);
        for (actor, &polls) in self.sched.actor_polls.iter().enumerate() {
            if polls != 0 {
                sink.set(sm::SCHED_ACTOR_POLLS, actor as u32, polls);
            }
        }
        sink.merge_hist(
            sm::SCHED_WAKE_TO_POLL_NS,
            0,
            &oasis_obs::ObsHistogram::from_sim(&self.sched.wake_to_poll),
        );
        sink.set(sm::SCHED_IDLE_SKIPS, 0, self.idle_skips);
        sink.merge_hist(sm::SCHED_IDLE_SKIP_NS, 0, &self.idle_skip_ns);
    }
    #[cfg(not(feature = "obs"))]
    #[inline(always)]
    fn export(&self, _sink: &mut oasis_obs::MetricSink) {}
}

/// The assembled pod.
pub struct Pod {
    /// Configuration.
    pub cfg: OasisConfig,
    /// The shared CXL pool.
    pub pool: CxlPool,
    /// The ToR switch.
    pub switch: Switch,
    /// NICs by id.
    pub nics: Vec<Nic>,
    /// Per-host drivers.
    pub drivers: Vec<HostDriver>,
    /// Backend drivers (Oasis NICs only).
    pub backends: Vec<BackendDriver>,
    /// Instances by index (instance id == index).
    pub instances: Vec<Instance>,
    /// The pod-wide allocator.
    pub allocator: PodAllocator,
    /// Client endpoints (`Send` so pods can migrate between shard workers).
    pub endpoints: Vec<Box<dyn Endpoint + Send>>,
    /// SSDs by id.
    pub ssds: Vec<Ssd>,
    /// Storage frontends, per host (Oasis hosts in pods with SSDs).
    pub storage_frontends: Vec<Option<StorageFrontend>>,
    /// Storage backends, per SSD.
    pub storage_backends: Vec<StorageBackend>,
    /// Compute-offload accelerators by id.
    pub accels: Vec<AccelDevice>,
    /// Accel frontends, per host (Oasis hosts in pods with accelerators).
    pub accel_frontends: Vec<Option<AccelFrontend>>,
    /// Accel backends, per accelerator.
    pub accel_backends: Vec<AccelBackend>,
    nic_macs: Vec<MacAddr>,
    nic_host: Vec<usize>,
    nic_port: Vec<usize>,
    backend_of_nic: Vec<Option<usize>>,
    endpoint_port: Vec<usize>,
    port_owner: Vec<PortOwner>,
    /// Site number (fleet-unique MAC/IP numbering base; see
    /// [`PodBuilder::site`]).
    site: u32,
    /// Switch port of each inter-pod uplink.
    uplink_port: Vec<usize>,
    /// Frames that egressed on an uplink this window, awaiting relay by the
    /// fleet layer: `(egress_time, uplink, frame)`.
    pub(crate) uplink_out: Vec<(SimTime, usize, Frame)>,
    pending: EventQueue<PodEvent>,
    ra: RegionAllocator,
    /// Per-instance TX-area region, kept so a host-failure reclaim can
    /// return it to the allocator (`None` for baseline instances).
    inst_region: Vec<Option<Region>>,
    /// Hosts that have crashed (their cores are no longer stepped).
    dead_host: Vec<bool>,
    now: SimTime,
    /// Ambient-telemetry accumulators (empty with `obs` off).
    obs: PodObs,
}

// Pods migrate between shard worker threads (`oasis_sim::shard`); keep any
// non-`Send` regression a compile error rather than a runtime surprise.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Pod>();
};

/// Builds a [`Pod`]. Hosts and NICs are declared first; instances and
/// endpoints are added to the built pod.
pub struct PodBuilder {
    cfg: OasisConfig,
    pool_bytes: u64,
    site: u32,
    /// (has_nic, baseline placement or None for Oasis).
    hosts: Vec<(bool, Option<BufferPlacement>)>,
    backup_nic_host: Option<usize>,
    /// (host, config) per SSD.
    ssds: Vec<(usize, SsdConfig)>,
    /// (host, config) per accelerator.
    accels: Vec<(usize, AccelConfig)>,
}

impl PodBuilder {
    /// Start building with a configuration.
    pub fn new(cfg: OasisConfig) -> Self {
        PodBuilder {
            cfg,
            pool_bytes: 64 << 20,
            site: 0,
            hosts: Vec::new(),
            backup_nic_host: None,
            ssds: Vec::new(),
            accels: Vec::new(),
        }
    }

    /// Override the pool size (default 64 MiB of simulated CXL memory).
    pub fn pool_bytes(mut self, bytes: u64) -> Self {
        self.pool_bytes = bytes;
        self
    }

    /// Site number for multi-pod fleets ([`crate::fleet::Fleet`]). NIC MACs
    /// and instance IPs are numbered within the site, so pods that share an
    /// L2 domain over uplinks must use distinct sites (up to 255 instances
    /// per site); a standalone pod can leave the default 0.
    pub fn site(mut self, site: u32) -> Self {
        self.site = site;
        self
    }

    /// Add an Oasis host without a local NIC. Returns the host index.
    pub fn add_host(&mut self) -> usize {
        self.hosts.push((false, None));
        self.hosts.len() - 1
    }

    /// Add an Oasis host with a local NIC (and backend driver).
    pub fn add_nic_host(&mut self) -> usize {
        self.hosts.push((true, None));
        self.hosts.len() - 1
    }

    /// Add a baseline (Junction) host with a local NIC and the given buffer
    /// placement.
    pub fn add_baseline_host(&mut self, placement: BufferPlacement) -> usize {
        self.hosts.push((true, Some(placement)));
        self.hosts.len() - 1
    }

    /// Attach an SSD to `host` (drives the storage engine, §3.4). Returns
    /// the SSD id.
    pub fn add_ssd(&mut self, host: usize, cfg: SsdConfig) -> usize {
        assert!(host < self.hosts.len(), "add hosts before their SSDs");
        self.ssds.push((host, cfg));
        self.ssds.len() - 1
    }

    /// Attach a compute-offload accelerator to `host` (drives the accel
    /// engine — the third device class, proving the [`crate::engine`]
    /// abstraction generalizes). Returns the accelerator id.
    pub fn add_accel(&mut self, host: usize, cfg: AccelConfig) -> usize {
        assert!(
            host < self.hosts.len(),
            "add hosts before their accelerators"
        );
        self.accels.push((host, cfg));
        self.accels.len() - 1
    }

    /// Reserve the NIC of `host` as the pod's failover backup (§3.3.3).
    pub fn backup_nic_on(mut self, host: usize) -> Self {
        self.backup_nic_host = Some(host);
        self
    }

    /// Assemble the pod.
    pub fn build(self) -> Pod {
        let n_hosts = self.hosts.len();
        let mut pool = CxlPool::new(self.pool_bytes, n_hosts);
        let mut ra = RegionAllocator::new(&pool);
        let mut switch = Switch::new(0);
        let mut nics = Vec::new();
        let mut nic_macs = Vec::new();
        let mut nic_host = Vec::new();
        let mut nic_port = Vec::new();
        let mut backend_of_nic: Vec<Option<usize>> = Vec::new();
        let mut backends: Vec<BackendDriver> = Vec::new();
        let mut port_owner = Vec::new();

        // Allocator service core (control plane; port 0's host).
        let alloc_core = HostCtx::new(PortId(0), 0);
        let mut allocator = PodAllocator::new(alloc_core, self.cfg.clone());

        // Create NICs and backend drivers.
        let mut oasis_nic_ids = Vec::new();
        for (host, &(has_nic, baseline)) in self.hosts.iter().enumerate() {
            if !has_nic {
                continue;
            }
            let nic_id = nics.len();
            let mac = MacAddr::nic(((self.site as u64) << 16) | nic_id as u64);
            let nic = Nic::new(mac, NicConfig::default());
            let port = switch.add_port();
            port_owner.push(PortOwner::Nic(nic_id));
            let backup = self.backup_nic_host == Some(host);
            allocator.propose(AllocCommand::RegisterNic {
                nic: nic_id as u32,
                host: host as u32,
                capacity_mbps: (nic.bandwidth_gbps() * 1000.0) as u32,
                backup,
            });
            if baseline.is_none() {
                // Oasis backend: RX area + allocator channel.
                let rx_region = ra.alloc(
                    &mut pool,
                    format!("nic{nic_id}.rx_area"),
                    self.cfg.rx_area_per_nic,
                    TrafficClass::Payload,
                );
                let pair =
                    alloc_net_channel(&mut pool, &mut ra, &format!("be{nic_id}->alloc"), 256);
                allocator.add_backend(nic_id as u32, pair.receiver);
                let be_to_alloc = pair.sender;
                let be_core = HostCtx::new(PortId(host), 1 << 20);
                // Backends do not receive from the allocator in this
                // implementation; give them an inert receiver on a tiny
                // private channel.
                let inert =
                    alloc_net_channel(&mut pool, &mut ra, &format!("alloc->be{nic_id}"), 16);
                let backend = BackendDriver::new(
                    nic_id,
                    host,
                    be_core,
                    self.cfg.clone(),
                    BufferArea::new(rx_region, self.cfg.buf_size),
                    be_to_alloc,
                    inert.receiver,
                );
                backend_of_nic.push(Some(backends.len()));
                backends.push(backend);
                oasis_nic_ids.push(nic_id);
            } else {
                backend_of_nic.push(None);
            }
            nic_macs.push(mac);
            nic_host.push(host);
            nic_port.push(port);
            nics.push(nic);
        }

        // Create host drivers.
        let mut drivers = Vec::new();
        for (host, &(has_nic, baseline)) in self.hosts.iter().enumerate() {
            match baseline {
                Some(placement) => {
                    // oasis-check: allow(no-panic) pod construction, not a runtime path: a
                    // baseline placement without a NIC is a config error caught at build.
                    let nic_id = nic_host
                        .iter()
                        .position(|&h| h == host)
                        .expect("baseline host has a NIC");
                    let core = HostCtx::new(PortId(host), 8 << 20);
                    let ld = LocalDriver::new(
                        host,
                        nic_id,
                        core,
                        self.cfg.clone(),
                        placement,
                        &mut pool,
                        &mut ra,
                    );
                    drivers.push(HostDriver::Local(ld));
                }
                None => {
                    let _ = has_nic;
                    let fe_core = HostCtx::new(PortId(host), 8 << 20);
                    let fe_alloc_tx =
                        alloc_net_channel(&mut pool, &mut ra, &format!("fe{host}->alloc"), 256);
                    let alloc_fe =
                        alloc_net_channel(&mut pool, &mut ra, &format!("alloc->fe{host}"), 256);
                    allocator.add_frontend(host, alloc_fe.sender, fe_alloc_tx.receiver);
                    let mut fe = FrontendDriver::new(
                        host,
                        fe_core,
                        self.cfg.clone(),
                        fe_alloc_tx.sender,
                        alloc_fe.receiver,
                    );
                    // Channel pairs to every Oasis backend.
                    for &nic_id in &oasis_nic_ids {
                        let fe_be = alloc_net_channel(
                            &mut pool,
                            &mut ra,
                            &format!("fe{host}->be{nic_id}"),
                            self.cfg.channel_slots,
                        );
                        let be_fe = alloc_net_channel(
                            &mut pool,
                            &mut ra,
                            &format!("be{nic_id}->fe{host}"),
                            self.cfg.channel_slots,
                        );
                        fe.add_backend_link(nic_id, fe_be.sender, be_fe.receiver);
                        // oasis-check: allow(no-panic) pod construction: every Oasis NIC id
                        // was assigned a backend in the loop above.
                        let be_idx = backend_of_nic[nic_id].unwrap();
                        backends[be_idx].add_frontend_link(host, be_fe.sender, fe_be.receiver);
                    }
                    drivers.push(HostDriver::Oasis(fe));
                }
            }
        }

        // Storage engine: one backend per SSD, one frontend per Oasis host
        // (only when the pod has SSDs), fully meshed with 64 B channels.
        let mut ssds = Vec::new();
        let mut storage_backends: Vec<StorageBackend> = Vec::new();
        let mut storage_frontends: Vec<Option<StorageFrontend>> = Vec::new();
        for (ssd_id, (host, ssd_cfg)) in self.ssds.iter().enumerate() {
            allocator.propose(AllocCommand::RegisterSsd {
                ssd: ssd_id as u32,
                host: *host as u32,
                capacity_blocks: ssd_cfg.blocks_per_ns as u32 * ssd_cfg.namespaces,
            });
            let be_core = HostCtx::new(PortId(*host), 0);
            storage_backends.push(StorageBackend::new(
                ssd_id,
                *host,
                be_core,
                self.cfg.clone(),
            ));
            ssds.push(Ssd::new(ssd_cfg.clone()));
        }
        for (host, &(_, baseline)) in self.hosts.iter().enumerate() {
            if self.ssds.is_empty() || baseline.is_some() {
                storage_frontends.push(None);
                continue;
            }
            let data_region = ra.alloc(
                &mut pool,
                format!("host{host}.storage_data"),
                self.cfg.storage_area_per_host,
                TrafficClass::Payload,
            );
            let fe_core = HostCtx::new(PortId(host), 0);
            let mut fe = StorageFrontend::new(
                host,
                fe_core,
                self.cfg.clone(),
                BufferArea::new(data_region, self.cfg.storage_buf_size),
            );
            for (ssd_id, be) in storage_backends.iter_mut().enumerate() {
                let cmd = alloc_descriptor_channel::<NvmeCommand>(
                    &mut pool,
                    &mut ra,
                    &format!("sfe{host}->sbe{ssd_id}"),
                    1024,
                );
                let cpl = alloc_descriptor_channel::<NvmeCommand>(
                    &mut pool,
                    &mut ra,
                    &format!("sbe{ssd_id}->sfe{host}"),
                    1024,
                );
                fe.add_device_link(ssd_id, cmd.sender, cpl.receiver);
                be.add_frontend_link(host, cpl.sender, cmd.receiver);
            }
            storage_frontends.push(Some(fe));
        }

        // Accel engine: one backend per accelerator, one frontend per Oasis
        // host (only when the pod has accelerators), fully meshed with 64 B
        // job-descriptor channels — structurally identical to storage, which
        // is the point of the engine abstraction.
        let mut accels = Vec::new();
        let mut accel_backends: Vec<AccelBackend> = Vec::new();
        let mut accel_frontends: Vec<Option<AccelFrontend>> = Vec::new();
        for (dev_id, (host, accel_cfg)) in self.accels.iter().enumerate() {
            allocator.propose(AllocCommand::RegisterAccel {
                accel: dev_id as u32,
                host: *host as u32,
            });
            let be_core = HostCtx::new(PortId(*host), 0);
            accel_backends.push(AccelBackend::new(dev_id, *host, be_core, self.cfg.clone()));
            accels.push(AccelDevice::new(accel_cfg.clone()));
        }
        for (host, &(_, baseline)) in self.hosts.iter().enumerate() {
            if self.accels.is_empty() || baseline.is_some() {
                accel_frontends.push(None);
                continue;
            }
            let data_region = ra.alloc(
                &mut pool,
                format!("host{host}.accel_data"),
                self.cfg.accel_area_per_host,
                TrafficClass::Payload,
            );
            let fe_core = HostCtx::new(PortId(host), 0);
            let mut fe = AccelFrontend::new(
                host,
                fe_core,
                self.cfg.clone(),
                BufferArea::new(data_region, self.cfg.accel_buf_size),
            );
            for (dev_id, be) in accel_backends.iter_mut().enumerate() {
                let cmd = alloc_descriptor_channel::<AccelCommand>(
                    &mut pool,
                    &mut ra,
                    &format!("afe{host}->abe{dev_id}"),
                    1024,
                );
                let cpl = alloc_descriptor_channel::<AccelCommand>(
                    &mut pool,
                    &mut ra,
                    &format!("abe{dev_id}->afe{host}"),
                    1024,
                );
                fe.add_device_link(dev_id, cmd.sender, cpl.receiver);
                be.add_frontend_link(host, cpl.sender, cmd.receiver);
            }
            accel_frontends.push(Some(fe));
        }

        Pod {
            cfg: self.cfg,
            pool,
            switch,
            nics,
            drivers,
            backends,
            instances: Vec::new(),
            allocator,
            endpoints: Vec::new(),
            ssds,
            storage_frontends,
            storage_backends,
            accels,
            accel_frontends,
            accel_backends,
            nic_macs,
            nic_host,
            nic_port,
            backend_of_nic,
            endpoint_port: Vec::new(),
            port_owner,
            site: self.site,
            uplink_port: Vec::new(),
            uplink_out: Vec::new(),
            pending: EventQueue::new(),
            ra,
            inst_region: Vec::new(),
            dead_host: vec![false; n_hosts],
            now: SimTime::ZERO,
            obs: PodObs::default(),
        }
    }
}

impl Pod {
    /// Current simulated time (max of all dispatched clocks).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The pod's site number (fleet-unique MAC/IP numbering base).
    pub fn site(&self) -> u32 {
        self.site
    }

    /// Number of hosts in the pod.
    pub fn hosts(&self) -> usize {
        self.drivers.len()
    }

    /// Export every component's telemetry as one canonical snapshot: each
    /// engine's [`DeviceEngine::on_metrics`] hook (host order, registration
    /// order within a host), the allocator's control-plane tallies, the
    /// pool's link meters and per-host cache stats, and — with `obs` on —
    /// the ambient scheduler/idle-skip stats. Pure observer: calling this
    /// never changes pod state or timing, so the simulated timeline is
    /// identical whether or not snapshots are taken.
    pub fn metrics_snapshot(&self) -> oasis_obs::MetricsSnapshot {
        let mut sink = oasis_obs::MetricSink::new();
        for host in 0..self.drivers.len() {
            match &self.drivers[host] {
                HostDriver::Oasis(fe) => fe.on_metrics(&mut sink),
                HostDriver::Local(ld) => ld.on_metrics(&mut sink),
            }
            for be in self.backends.iter().filter(|b| b.host == host) {
                be.on_metrics(&mut sink);
            }
            if let Some(fe) = self.storage_frontends[host].as_ref() {
                fe.on_metrics(&mut sink);
            }
            for be in self.storage_backends.iter().filter(|b| b.host == host) {
                be.on_metrics(&mut sink);
            }
            if let Some(fe) = self.accel_frontends[host].as_ref() {
                fe.on_metrics(&mut sink);
            }
            for be in self.accel_backends.iter().filter(|b| b.host == host) {
                be.on_metrics(&mut sink);
            }
        }
        sink.set(
            crate::metrics::ALLOC_REROUTES_SENT,
            0,
            self.allocator.reroutes_sent,
        );
        sink.set(crate::metrics::ALLOC_FAILOVERS, 0, self.allocator.failovers);
        oasis_cxl::obs::export_host_metrics(&self.allocator.core, &mut sink);
        oasis_cxl::obs::export_pool_metrics(&self.pool, &mut sink);
        self.obs.export(&mut sink);
        sink.snapshot()
    }

    /// The MAC of a NIC.
    pub fn nic_mac(&self, nic: usize) -> MacAddr {
        self.nic_macs[nic]
    }

    /// The host a NIC is attached to.
    pub fn nic_host(&self, nic: usize) -> usize {
        self.nic_host[nic]
    }

    /// The IP assigned to an instance.
    pub fn instance_ip(&self, inst: usize) -> Ipv4Addr {
        self.instances[inst].ip
    }

    /// The MAC an instance currently answers on (its serving NIC's MAC).
    pub fn instance_mac(&self, inst: usize) -> MacAddr {
        self.instances[inst].mac()
    }

    /// Launch an instance on `host` with a NIC-bandwidth lease. Placement
    /// is local-first via the pod-wide allocator; the instance is also
    /// pre-registered with the pod's backup NIC (§3.3.3).
    ///
    /// Panics when placement fails — experiment harnesses that want to
    /// handle a full pod use [`Pod::try_launch_instance`].
    pub fn launch_instance(&mut self, host: usize, app: AppKind, lease_mbps: u32) -> usize {
        match self.try_launch_instance(host, app, lease_mbps) {
            Ok(idx) => idx,
            // oasis-check: allow(no-panic) documented panicking convenience wrapper;
            // runtime callers use try_launch_instance.
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible instance launch: placement failure surfaces as a
    /// [`PodError`] instead of a panic.
    pub fn try_launch_instance(
        &mut self,
        host: usize,
        app: AppKind,
        lease_mbps: u32,
    ) -> Result<usize, PodError> {
        if host >= self.drivers.len() {
            return Err(PodError::NoSuchHost(host));
        }
        let idx = self.instances.len();
        let id = idx as u32;
        let ip = Ipv4Addr::instance((self.site << 8) | (id + 1));
        let mut inst = Instance::new(id, ip, host, app);

        match &self.drivers[host] {
            HostDriver::Oasis(_) => {
                let nic = self
                    .allocator
                    .place_instance(host, ip, lease_mbps)
                    .ok_or(PodError::NoNicCapacity)? as usize;
                let backup = self
                    .allocator
                    .state
                    .backup_nic()
                    .map(|b| b as usize)
                    .filter(|&b| b != nic);
                let tx_region = self.ra.alloc(
                    &mut self.pool,
                    format!("inst{id}.tx_area"),
                    self.cfg.tx_area_per_instance,
                    TrafficClass::Payload,
                );
                self.inst_region.push(Some(tx_region.clone()));
                let area = BufferArea::new(tx_region, self.cfg.buf_size);
                let HostDriver::Oasis(fe) = &mut self.drivers[host] else {
                    return Err(PodError::EngineMissing {
                        host,
                        engine: "net",
                    });
                };
                fe.attach_instance(idx, ip, area, nic, backup);
                // Register with the serving and backup backends (flow rules
                // + ip→frontend routing).
                for target in [Some(nic), backup].into_iter().flatten() {
                    if let Some(b) = self.backend_of_nic[target] {
                        self.backends[b].register_instance(&mut self.nics[target], ip, id, host);
                    }
                }
                inst.set_mac(self.now, self.nic_macs[nic], false);
            }
            HostDriver::Local(_) => {
                let HostDriver::Local(ld) = &mut self.drivers[host] else {
                    return Err(PodError::EngineMissing {
                        host,
                        engine: "net",
                    });
                };
                let nic = ld.nic_id;
                ld.attach_instance(&mut self.nics[nic], idx, ip, id);
                inst.set_mac(self.now, self.nic_macs[nic], false);
                self.inst_region.push(None);
            }
        }
        self.instances.push(inst);
        Ok(idx)
    }

    /// Attach a client endpoint to a new switch port. Returns its index.
    pub fn add_endpoint(&mut self, ep: Box<dyn Endpoint + Send>) -> usize {
        let port = self.switch.add_port();
        self.port_owner
            .push(PortOwner::Endpoint(self.endpoints.len()));
        self.endpoint_port.push(port);
        self.endpoints.push(ep);
        self.endpoints.len() - 1
    }

    /// Attach an inter-pod uplink to a new switch port. Returns the uplink
    /// index. Frames the switch egresses here accumulate in the pod's
    /// uplink-out buffer; the fleet layer (`crate::fleet`) relays them to
    /// the peer pod with the uplink's latency. Standard L2 learning makes
    /// routing work unmodified: remote MACs are learned from uplink ingress
    /// traffic, unknown destinations flood to the uplink like any port.
    pub fn add_uplink(&mut self) -> usize {
        let port = self.switch.add_port();
        self.port_owner
            .push(PortOwner::Uplink(self.uplink_port.len()));
        self.uplink_port.push(port);
        self.uplink_port.len() - 1
    }

    /// Number of attached inter-pod uplinks.
    pub fn uplinks(&self) -> usize {
        self.uplink_port.len()
    }

    /// A frame from a peer pod arrives on `uplink` at `at` (simulated
    /// time). It is queued on the pod's event timeline and enters the
    /// switch when the clock reaches `at`.
    pub fn inject_uplink_frame(&mut self, at: SimTime, uplink: usize, frame: Frame) {
        self.pending.push(at, PodEvent::UplinkFrame(uplink, frame));
    }

    /// Schedule a NIC failure at `at` using the paper's §5.3 method:
    /// disable the NIC's switch port; carrier loss is detected
    /// `cfg.link_detect` later.
    pub fn schedule_nic_failure(&mut self, at: SimTime, nic: usize) {
        self.pending.push(at, PodEvent::DisableNicPort(nic));
    }

    /// Schedule a NIC repair.
    pub fn schedule_nic_repair(&mut self, at: SimTime, nic: usize) {
        self.pending.push(at, PodEvent::EnableNicPort(nic));
    }

    /// Schedule a graceful migration of instance `ip` to `nic` (§3.3.4).
    pub fn schedule_migration(&mut self, at: SimTime, ip: Ipv4Addr, nic: u32) {
        self.pending.push(at, PodEvent::Migrate(ip, nic));
    }

    /// Schedule a host crash at `at`: its frontend/backend cores stop
    /// polling, its private CPU caches are discarded (dirty lines and all —
    /// torn write-backs are real), and its devices go silent. The allocator
    /// detects this from missing heartbeats/telemetry (§3.5).
    pub fn schedule_host_failure(&mut self, at: SimTime, host: usize) {
        self.pending.push(at, PodEvent::FailHost(host));
    }

    /// Schedule a crashed host's restart at `at`: its cores resume from the
    /// restart time with cold caches, and its storage frontend resubmits
    /// every in-flight command (the backend deduplicates replays).
    pub fn schedule_host_restart(&mut self, at: SimTime, host: usize) {
        self.pending.push(at, PodEvent::RestartHost(host));
    }

    /// Install a [`FaultPlan`]: translate every scheduled fault into pod
    /// events. An empty plan is a strict no-op — nothing is scheduled, no
    /// RNG is forked, and the simulation is byte-identical to not calling
    /// this at all (the bench determinism guard asserts it).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        let mut inj = FaultInjector::new(plan);
        let mut tag = 0u64;
        while let Some(ev) = inj.pop_due(SimTime::MAX) {
            let at = ev.at;
            match ev.kind {
                FaultKind::HostCrash {
                    host,
                    restart_after,
                } => {
                    self.schedule_host_failure(at, host);
                    if let Some(d) = restart_after {
                        self.schedule_host_restart(at + d, host);
                    }
                }
                FaultKind::PortFlap { nic, down_for } => {
                    self.schedule_nic_failure(at, nic);
                    self.schedule_nic_repair(at + down_for, nic);
                }
                FaultKind::PacketFault {
                    nic,
                    drop_ppm,
                    corrupt_ppm,
                    duplicate_ppm,
                    duration,
                } => {
                    let state = PacketFaultState::new(
                        drop_ppm,
                        corrupt_ppm,
                        duplicate_ppm,
                        at + duration,
                        inj.fork_rng(tag),
                    );
                    self.pending.push(at, PodEvent::SetPacketFault(nic, state));
                }
                FaultKind::CxlSlow {
                    host,
                    extra_ns,
                    duration,
                } => {
                    self.pending
                        .push(at, PodEvent::CxlSlowStart(host, extra_ns));
                    self.pending
                        .push(at + duration, PodEvent::CxlSlowEnd(host, extra_ns));
                }
                FaultKind::CxlStall { host, stall } => {
                    self.pending.push(at, PodEvent::CxlStall(host, stall));
                }
                FaultKind::SsdFault {
                    ssd,
                    mode,
                    duration,
                } => {
                    let ev = match mode {
                        SsdFaultMode::Timeout => PodEvent::SsdTimeoutUntil(ssd, at + duration),
                        SsdFaultMode::ReadError => PodEvent::SsdReadErrorsUntil(ssd, at + duration),
                    };
                    self.pending.push(at, ev);
                }
                FaultKind::AccelFault {
                    accel,
                    mode,
                    duration,
                } => {
                    let ev = match mode {
                        AccelFaultMode::Timeout => {
                            PodEvent::AccelTimeoutUntil(accel, at + duration)
                        }
                        AccelFaultMode::ComputeError => {
                            PodEvent::AccelErrorsUntil(accel, at + duration)
                        }
                    };
                    self.pending.push(at, ev);
                }
            }
            tag += 1;
        }
    }

    /// Carve a block volume for an instance out of the pod's pooled SSD
    /// capacity (local-first, then most-free — the storage analog of §3.5
    /// placement).
    pub fn create_volume(&mut self, inst: usize, blocks: u64) -> Option<VolumeHandle> {
        let host = self.instances[inst].host;
        let ip = self.instances[inst].ip;
        let (ssd, base) = self.allocator.place_volume(host, ip, blocks as u32)?;
        Some(VolumeHandle {
            inst,
            ssd: ssd as usize,
            base_block: base as u64,
            blocks,
        })
    }

    /// Submit a write of whole blocks to a volume. Returns the command id.
    pub fn volume_write(&mut self, vol: VolumeHandle, lba: u64, data: &[u8]) -> Option<u16> {
        let nlb = data.len() as u64 / oasis_storage::BLOCK_SIZE;
        assert!(lba + nlb <= vol.blocks, "write escapes the volume");
        let host = self.instances[vol.inst].host;
        let fe = self.storage_frontends[host].as_mut()?;
        fe.submit_write(&mut self.pool, vol.ssd, vol.base_block + lba, data)
    }

    /// Submit a read of `nlb` blocks from a volume. Returns the command id.
    pub fn volume_read(&mut self, vol: VolumeHandle, lba: u64, nlb: u32) -> Option<u16> {
        assert!(lba + nlb as u64 <= vol.blocks, "read escapes the volume");
        let host = self.instances[vol.inst].host;
        let fe = self.storage_frontends[host].as_mut()?;
        fe.submit_read(&mut self.pool, vol.ssd, vol.base_block + lba, nlb)
    }

    /// Drain completed block I/Os for instances on `host`.
    pub fn take_storage_completions(
        &mut self,
        host: usize,
    ) -> Vec<crate::engine_storage::IoResult> {
        self.storage_frontends[host]
            .as_mut()
            .map(|fe| fe.take_completions())
            .unwrap_or_default()
    }

    /// Tear an instance down: release its NIC lease and volumes (local
    /// NVMe is ephemeral — §3.4), unregister it from every backend, and
    /// remove its flow rules. The instance object remains for post-mortem
    /// stats but receives no further traffic.
    pub fn terminate_instance(&mut self, inst: usize) {
        let ip = self.instances[inst].ip;
        self.allocator
            .propose(crate::allocator::AllocCommand::Unassign { ip });
        self.allocator
            .propose(crate::allocator::AllocCommand::ReleaseVolumes { ip });
        for nic in 0..self.nics.len() {
            if let Some(b) = self.backend_of_nic[nic] {
                self.backends[b].unregister_instance(&mut self.nics[nic], ip);
            }
        }
        self.instances[inst].set_mac(self.now, MacAddr::ZERO, false);
    }

    /// Mark a repaired NIC usable for new placements again (operator
    /// action after `schedule_nic_repair`'s link restoration).
    pub fn mark_nic_repaired(&mut self, nic: usize) {
        self.allocator
            .propose(crate::allocator::AllocCommand::MarkRepaired { nic: nic as u32 });
    }

    /// Fail (or repair) an SSD; in-flight and future I/O completes with an
    /// error status that propagates to the guest (§3.4).
    pub fn set_ssd_failed(&mut self, ssd: usize, failed: bool) {
        self.ssds[ssd].set_failed(failed);
    }

    /// Submit a compute-offload job from `host`. The accelerator is picked
    /// local-first through the pod-wide allocator (the compute analog of
    /// §3.5 placement). Returns the command id, or `Ok(None)` when
    /// backpressured (no free job buffers / full channel) — the caller
    /// retries on a later tick.
    pub fn submit_accel_job(
        &mut self,
        host: usize,
        op: AccelOp,
        arg: u32,
        input: &[u8],
    ) -> Result<Option<u16>, PodError> {
        if host >= self.drivers.len() {
            return Err(PodError::NoSuchHost(host));
        }
        let dev = self
            .allocator
            .state
            .pick_accel(host as u32)
            .ok_or(PodError::NoSuchDevice {
                class: "accel",
                index: 0,
            })? as usize;
        let fe = self.accel_frontends[host]
            .as_mut()
            .ok_or(PodError::EngineMissing {
                host,
                engine: "accel",
            })?;
        Ok(fe.submit_job(&mut self.pool, dev, op, arg, input))
    }

    /// Drain completed offload jobs for `host`.
    pub fn take_accel_completions(&mut self, host: usize) -> Vec<JobResult> {
        self.accel_frontends
            .get_mut(host)
            .and_then(|fe| fe.as_mut())
            .map(|fe| fe.take_completions())
            .unwrap_or_default()
    }

    /// Offload jobs still in flight from `host`.
    pub fn accel_jobs_in_flight(&self, host: usize) -> usize {
        self.accel_frontends
            .get(host)
            .and_then(|fe| fe.as_ref())
            .map(|fe| fe.in_flight())
            .unwrap_or(0)
    }

    /// Fail (or repair) an accelerator; in-flight and future jobs complete
    /// with an error status that propagates to the guest (§3.4 — no
    /// transparent failover for stateful devices).
    pub fn set_accel_failed(&mut self, accel: usize, failed: bool) {
        self.accels[accel].set_failed(failed);
    }

    /// Apply `f` to every polling core that lives on `host`. The allocator
    /// service core is the control plane's own machine and is never
    /// fault-targeted (chaos mixes exclude it).
    fn for_each_host_core(&mut self, host: usize, mut f: impl FnMut(&mut HostCtx)) {
        let Pod {
            drivers,
            backends,
            storage_frontends,
            storage_backends,
            accel_frontends,
            accel_backends,
            ..
        } = self;
        each_host_engine(
            drivers,
            backends,
            storage_frontends,
            storage_backends,
            accel_frontends,
            accel_backends,
            host,
            |e| f(e.core_mut()),
        );
    }

    /// Deliver a host-level fault to every engine core on `host`: drop the
    /// private cache (dirty lines included — torn write-backs are real), on
    /// restart bump the clock to the restart time, then give the engine its
    /// [`DeviceEngine::on_fault`] hook for recovery work (command replay).
    fn apply_engine_fault(&mut self, host: usize, fault: EngineFault, at: SimTime) {
        let Pod {
            drivers,
            backends,
            storage_frontends,
            storage_backends,
            accel_frontends,
            accel_backends,
            pool,
            ..
        } = self;
        each_host_engine(
            drivers,
            backends,
            storage_frontends,
            storage_backends,
            accel_frontends,
            accel_backends,
            host,
            |e| {
                e.core_mut().cache.drain();
                // The host lost its private cache: any shadow-state the
                // coherence sanitizer tracked for this port is void.
                pool.san_host_reset(e.core().port);
                if fault == EngineFault::HostRestart {
                    let c = e.core_mut();
                    c.clock = c.clock.max(at);
                }
                e.on_fault(fault, pool);
            },
        );
    }

    /// Re-arm the scheduler entries of every engine on `host` at its
    /// current clock (used after a restart revives actors that went idle
    /// while the host was dead).
    fn wake_host_engines(&self, host: usize, map: &ActorMap, ctx: &mut StepCtx) {
        let clock = match &self.drivers[host] {
            HostDriver::Oasis(fe) => fe.core.clock,
            HostDriver::Local(ld) => ld.core.clock,
        };
        ctx.wake(map.driver_base + host, clock);
        for (i, be) in self.backends.iter().enumerate() {
            if be.host == host {
                ctx.wake(map.net_backend_base + i, be.core.clock);
            }
        }
        if let Some(fe) = self.storage_frontends[host].as_ref() {
            ctx.wake(map.storage_fe_base + host, fe.core.clock);
        }
        for (i, be) in self.storage_backends.iter().enumerate() {
            if be.host == host {
                ctx.wake(map.storage_be_base + i, be.core.clock);
            }
        }
        if let Some(fe) = self.accel_frontends[host].as_ref() {
            ctx.wake(map.accel_fe_base + host, fe.core.clock);
        }
        for (i, be) in self.accel_backends.iter().enumerate() {
            if be.host == host {
                ctx.wake(map.accel_be_base + i, be.core.clock);
            }
        }
    }

    /// Re-arm every endpoint actor at its next activation time. Called
    /// after any dispatch that forwarded frames: a delivery can only move
    /// an endpoint's `next_time` earlier (or wake an idle one), and
    /// [`StepCtx::wake`] is earlier-wins, so redundant wakes are no-ops.
    fn wake_endpoints(&self, map: &ActorMap, ctx: &mut StepCtx) {
        for (i, ep) in self.endpoints.iter().enumerate() {
            let nt = ep.next_time();
            if nt != SimTime::MAX {
                ctx.wake(map.endpoint_base + i, nt);
            }
        }
    }

    /// Reclaim everything owned by hosts the allocator just declared
    /// failed: unregister their instances from every backend (flow rules
    /// gone), detach them from the dead frontend, and return their pool
    /// regions to the region allocator. The replicated state machine has
    /// already revoked the leases and volumes, so nothing is proposed here.
    fn reclaim_failed_hosts(&mut self) {
        let failed = self.allocator.take_failed_hosts();
        for &host in &failed {
            let host = host as usize;
            for inst in 0..self.instances.len() {
                if self.instances[inst].host != host {
                    continue;
                }
                let ip = self.instances[inst].ip;
                for nic in 0..self.nics.len() {
                    if let Some(b) = self.backend_of_nic[nic] {
                        self.backends[b].unregister_instance(&mut self.nics[nic], ip);
                    }
                }
                self.instances[inst].set_mac(self.now, MacAddr::ZERO, false);
                if let Some(region) = self.inst_region[inst].take() {
                    self.ra.free(&region);
                }
            }
            if let HostDriver::Oasis(fe) = &mut self.drivers[host] {
                fe.detach_all_instances();
            }
        }
    }

    /// Bytes of pool memory currently handed out by the region allocator
    /// (the chaos harness asserts failures do not leak regions).
    pub fn pool_outstanding(&self) -> u64 {
        self.ra.outstanding()
    }

    fn forward(&mut self, now: SimTime, in_port: usize, frame: Frame) {
        for (port, at, f) in self.switch.forward(now, in_port, frame) {
            match self.port_owner[port] {
                PortOwner::Nic(n) => self.nics[n].deliver(at, f),
                PortOwner::Endpoint(e) => self.endpoints[e].deliver(at, f),
                PortOwner::Uplink(u) => self.uplink_out.push((at, u, f)),
            }
        }
    }

    fn apply_event(&mut self, at: SimTime, ev: PodEvent, map: &ActorMap, ctx: &mut StepCtx) {
        match ev {
            PodEvent::DisableNicPort(nic) => {
                self.switch.set_port_enabled(self.nic_port[nic], false);
                self.pending
                    .push(at + self.cfg.link_detect, PodEvent::LinkDown(nic));
            }
            PodEvent::LinkDown(nic) => self.nics[nic].set_link(false),
            PodEvent::EnableNicPort(nic) => {
                self.switch.set_port_enabled(self.nic_port[nic], true);
                self.pending
                    .push(at + self.cfg.link_detect, PodEvent::LinkUp(nic));
            }
            PodEvent::LinkUp(nic) => {
                self.nics[nic].set_link(true);
                if let Some(b) = self.backend_of_nic[nic] {
                    self.backends[b].clear_failure_latch();
                }
            }
            PodEvent::FailHost(host) => {
                self.dead_host[host] = true;
                // The crash discards every private CPU cache on the host,
                // dirty lines included: anything not yet written back to
                // the pool is lost (torn write-backs).
                self.apply_engine_fault(host, EngineFault::HostCrash, at);
            }
            PodEvent::RestartHost(host) => {
                if !self.dead_host[host] {
                    return;
                }
                self.dead_host[host] = false;
                // Cold caches, clocks bumped to the restart time; engines
                // with in-flight state replay it through their fault hook.
                self.apply_engine_fault(host, EngineFault::HostRestart, at);
                self.wake_host_engines(host, map, ctx);
            }
            PodEvent::SetPacketFault(nic, state) => {
                self.switch.set_packet_fault(self.nic_port[nic], state);
            }
            PodEvent::CxlSlowStart(host, extra_ns) => {
                self.for_each_host_core(host, |c| c.costs.cxl_load_ns += extra_ns);
            }
            PodEvent::CxlSlowEnd(host, extra_ns) => {
                self.for_each_host_core(host, |c| {
                    c.costs.cxl_load_ns = c.costs.cxl_load_ns.saturating_sub(extra_ns);
                });
            }
            PodEvent::CxlStall(host, stall) => {
                self.for_each_host_core(host, |c| c.clock += stall);
            }
            PodEvent::SsdTimeoutUntil(ssd, until) => {
                self.ssds[ssd].inject_timeout_until(until);
            }
            PodEvent::SsdReadErrorsUntil(ssd, until) => {
                self.ssds[ssd].inject_read_errors_until(until);
            }
            PodEvent::AccelTimeoutUntil(accel, until) => {
                self.accels[accel].inject_timeout_until(until);
            }
            PodEvent::AccelErrorsUntil(accel, until) => {
                self.accels[accel].inject_compute_errors_until(until);
            }
            PodEvent::Migrate(ip, nic) => {
                // The frontend registers with the new NIC's backend over
                // its message channel (§3.3.4 ordering); the pod only
                // relays the operator's intent to the allocator.
                self.allocator.migrate_instance(&mut self.pool, ip, nic);
            }
            PodEvent::UplinkFrame(u, frame) => {
                let port = self.uplink_port[u];
                self.forward(at, port, frame);
                self.wake_endpoints(map, ctx);
            }
        }
    }

    /// Run the co-simulation until every component's clock reaches `until`.
    ///
    /// A horizon at or behind the pod clock is a no-op, and a horizon with
    /// no work before it only moves the clock. Multi-pod simulations shard
    /// at pod granularity via [`crate::fleet::Fleet`], which drives the
    /// same per-pod scheduler one conservative window at a time.
    pub fn run(&mut self, until: SimTime) {
        if until <= self.now {
            return;
        }
        if self.next_activity() < until {
            self.run_local(until);
        }
        self.now = until;
    }

    /// Bump the pod clock to the end of a horizon driven externally (by
    /// [`crate::fleet::Fleet`]): a pod whose windows were all skipped as
    /// idle still observed the full horizon.
    pub(crate) fn finish_horizon(&mut self, until: SimTime) {
        self.now = self.now.max(until);
    }

    /// Earliest simulated time any component wants to act: the minimum over
    /// live engine clocks, the allocator, endpoints, and the event queue.
    /// The sharded runner probes this to open windows at the next busy
    /// instant (and to skip horizons with no work at all).
    pub fn next_activity(&self) -> SimTime {
        let mut t = self.pending.peek_time().unwrap_or(SimTime::MAX);
        for (host, drv) in self.drivers.iter().enumerate() {
            if self.dead_host[host] {
                continue;
            }
            t = t.min(match drv {
                HostDriver::Oasis(fe) => fe.core.clock,
                HostDriver::Local(ld) => ld.core.clock,
            });
        }
        for be in &self.backends {
            if !self.dead_host[be.host] {
                t = t.min(be.core.clock);
            }
        }
        t = t.min(self.allocator.core.clock);
        for ep in &self.endpoints {
            t = t.min(ep.next_time());
        }
        for (host, fe) in self.storage_frontends.iter().enumerate() {
            if let Some(fe) = fe {
                if !self.dead_host[host] {
                    t = t.min(fe.core.clock);
                }
            }
        }
        for be in &self.storage_backends {
            if !self.dead_host[be.host] {
                t = t.min(be.core.clock);
            }
        }
        for (host, fe) in self.accel_frontends.iter().enumerate() {
            if let Some(fe) = fe {
                if !self.dead_host[host] {
                    t = t.min(fe.core.clock);
                }
            }
        }
        for be in &self.accel_backends {
            if !self.dead_host[be.host] {
                t = t.min(be.core.clock);
            }
        }
        t
    }

    /// One window of the co-simulation on this pod's own scheduler.
    ///
    /// Every component — device engines, the allocator, endpoints, the
    /// fault event queue — is registered as an actor on a fresh
    /// [`Scheduler`]; the scheduler dispatches whichever actor has the
    /// earliest wake time, breaking ties by registration order (the same
    /// order the legacy earliest-clock scan considered components in, so
    /// the timeline is byte-identical). Components with clocks at or past
    /// `until` simply re-arm without running, which a fresh registration
    /// per call makes uniform. Returns the number of actor dispatches.
    pub(crate) fn run_local(&mut self, until: SimTime) -> u64 {
        // The legacy scan stepped components with clocks strictly below
        // `until`; the scheduler deadline is inclusive, so it sits 1 ns
        // earlier.
        let Some(deadline) = until.as_nanos().checked_sub(1).map(SimTime::from_nanos) else {
            return 0;
        };
        let mut sched = Scheduler::new();
        let mut kinds: Vec<ActorKind> = Vec::new();

        let driver_base = sched.actor_count();
        for (host, drv) in self.drivers.iter().enumerate() {
            if self.dead_host[host] {
                sched.add_idle_actor();
            } else {
                let clock = match drv {
                    HostDriver::Oasis(fe) => fe.core.clock,
                    HostDriver::Local(ld) => ld.core.clock,
                };
                sched.add_actor(clock);
            }
            kinds.push(ActorKind::Engine(EngineRef::Driver(host)));
        }
        let net_backend_base = sched.actor_count();
        for (i, be) in self.backends.iter().enumerate() {
            if self.dead_host[be.host] {
                sched.add_idle_actor();
            } else {
                sched.add_actor(be.core.clock);
            }
            kinds.push(ActorKind::Engine(EngineRef::NetBackend(i)));
        }
        sched.add_actor(self.allocator.core.clock);
        kinds.push(ActorKind::Allocator);
        let endpoint_base = sched.actor_count();
        for (i, ep) in self.endpoints.iter().enumerate() {
            sched.add_actor(ep.next_time());
            kinds.push(ActorKind::Endpoint(i));
        }
        let storage_fe_base = sched.actor_count();
        for (host, fe) in self.storage_frontends.iter().enumerate() {
            match fe {
                Some(fe) if !self.dead_host[host] => {
                    sched.add_actor(fe.core.clock);
                }
                _ => {
                    sched.add_idle_actor();
                }
            }
            kinds.push(ActorKind::Engine(EngineRef::StorageFe(host)));
        }
        let storage_be_base = sched.actor_count();
        for (i, be) in self.storage_backends.iter().enumerate() {
            if self.dead_host[be.host] {
                sched.add_idle_actor();
            } else {
                sched.add_actor(be.core.clock);
            }
            kinds.push(ActorKind::Engine(EngineRef::StorageBe(i)));
        }
        let accel_fe_base = sched.actor_count();
        for (host, fe) in self.accel_frontends.iter().enumerate() {
            match fe {
                Some(fe) if !self.dead_host[host] => {
                    sched.add_actor(fe.core.clock);
                }
                _ => {
                    sched.add_idle_actor();
                }
            }
            kinds.push(ActorKind::Engine(EngineRef::AccelFe(host)));
        }
        let accel_be_base = sched.actor_count();
        for (i, be) in self.accel_backends.iter().enumerate() {
            if self.dead_host[be.host] {
                sched.add_idle_actor();
            } else {
                sched.add_actor(be.core.clock);
            }
            kinds.push(ActorKind::Engine(EngineRef::AccelBe(i)));
        }
        // The event queue goes last so on wake-time ties every component
        // runs before the event fires, matching the legacy scan's
        // events-considered-last rule.
        match self.pending.peek_time() {
            Some(t) => {
                sched.add_actor(t);
            }
            None => {
                sched.add_idle_actor();
            }
        }
        kinds.push(ActorKind::Events);

        let map = ActorMap {
            driver_base,
            net_backend_base,
            endpoint_base,
            storage_fe_base,
            storage_be_base,
            accel_fe_base,
            accel_be_base,
        };

        let mut dispatches: u64 = 0;
        sched.run_until_with(self, deadline, |pod, actor, at, ctx| {
            dispatches += 1;
            pod.dispatch(&kinds, &map, actor, at, until, ctx)
        });
        self.obs.fold_sched(&sched);
        self.now = self.now.max(until);
        dispatches
    }

    /// Dispatch one actor at its wake time.
    fn dispatch(
        &mut self,
        kinds: &[ActorKind],
        map: &ActorMap,
        actor: usize,
        at: SimTime,
        until: SimTime,
        ctx: &mut StepCtx,
    ) -> StepOutcome {
        match kinds[actor] {
            ActorKind::Engine(eref) => self.dispatch_engine(eref, map, at, until, ctx),
            ActorKind::Allocator => {
                let clock = self.allocator.core.clock;
                if at < clock {
                    // Stale entry: something (e.g. a migration command sent
                    // on the allocator's core) advanced the clock since this
                    // wake was queued.
                    return StepOutcome::WakeAt(clock);
                }
                self.now = self.now.max(at);
                self.allocator.step(&mut self.pool);
                if self.allocator.has_newly_failed_hosts() {
                    self.reclaim_failed_hosts();
                }
                StepOutcome::WakeAt(self.allocator.core.clock)
            }
            ActorKind::Endpoint(ei) => {
                let nt = self.endpoints[ei].next_time();
                if at < nt {
                    // A delivery since this wake was queued pushed the
                    // activation later, or the endpoint went idle.
                    return if nt == SimTime::MAX {
                        StepOutcome::Idle
                    } else {
                        StepOutcome::WakeAt(nt)
                    };
                }
                self.now = self.now.max(at);
                let frames = self.endpoints[ei].poll(at);
                let port = self.endpoint_port[ei];
                for f in frames {
                    self.forward(at, port, f);
                }
                self.wake_endpoints(map, ctx);
                let nt = self.endpoints[ei].next_time();
                if nt == SimTime::MAX {
                    StepOutcome::Idle
                } else {
                    StepOutcome::WakeAt(nt)
                }
            }
            ActorKind::Events => {
                if let Some(t) = self.pending.peek_time() {
                    if at < t {
                        return StepOutcome::WakeAt(t);
                    }
                    self.now = self.now.max(at);
                    if let Some((eat, ev)) = self.pending.pop() {
                        self.apply_event(eat, ev, map, ctx);
                    }
                }
                // Re-peek after applying: the event may have chained a
                // follow-up (LinkDown after DisableNicPort).
                match self.pending.peek_time() {
                    Some(t) => StepOutcome::WakeAt(t),
                    None => StepOutcome::Idle,
                }
            }
        }
    }

    /// Dispatch one device-engine actor: the single uniform stepping path
    /// for every engine type.
    fn dispatch_engine(
        &mut self,
        eref: EngineRef,
        map: &ActorMap,
        at: SimTime,
        until: SimTime,
        ctx: &mut StepCtx,
    ) -> StepOutcome {
        let (egress, egress_nic, next) = {
            let Pod {
                drivers,
                backends,
                storage_frontends,
                storage_backends,
                accel_frontends,
                accel_backends,
                pool,
                instances,
                nics,
                ssds,
                accels,
                nic_macs,
                dead_host,
                now,
                obs,
                ..
            } = self;
            let engine: &mut dyn DeviceEngine = match eref {
                EngineRef::Driver(i) => match &mut drivers[i] {
                    HostDriver::Oasis(fe) => fe,
                    HostDriver::Local(ld) => ld,
                },
                EngineRef::NetBackend(i) => &mut backends[i],
                EngineRef::StorageFe(h) => match storage_frontends[h].as_mut() {
                    Some(fe) => fe,
                    None => return StepOutcome::Idle,
                },
                EngineRef::StorageBe(i) => &mut storage_backends[i],
                EngineRef::AccelFe(h) => match accel_frontends[h].as_mut() {
                    Some(fe) => fe,
                    None => return StepOutcome::Idle,
                },
                EngineRef::AccelBe(i) => &mut accel_backends[i],
            };
            if dead_host[engine.host()] {
                // The host crashed after this wake was queued; park the
                // actor (a restart re-arms it via `wake_host_engines`).
                return StepOutcome::Idle;
            }
            let nt = engine.next_time();
            if at < nt {
                // Stale entry: a fault (CXL stall, restart) jumped the
                // clock since this wake was queued.
                return StepOutcome::WakeAt(nt);
            }
            // Fast-forward through provable idleness: anything the engine
            // can show matters next happens no earlier than the next other
            // actor's wake (the legacy scan's `second_t`).
            let limit = ctx.next_other().min(until);
            if engine.try_idle_skip(nics, instances, limit) {
                let skipped_to = engine.next_time();
                obs.note_idle_skip(nt, skipped_to);
                return StepOutcome::WakeAt(skipped_to);
            }
            *now = (*now).max(at);
            let mut world = EngineWorld {
                pool,
                instances,
                nic_macs: nic_macs.as_slice(),
                nics: nics.as_mut_slice(),
                ssds: ssds.as_mut_slice(),
                accels: accels.as_mut_slice(),
            };
            let egress = engine.poll(&mut world);
            (egress, engine.egress_nic(), engine.next_time())
        };
        if let Some(nic) = egress_nic {
            let port = self.nic_port[nic];
            for (fat, f) in egress {
                self.forward(fat, port, f);
            }
        }
        self.wake_endpoints(map, ctx);
        StepOutcome::WakeAt(next)
    }
}

impl Pod {
    /// Every snapshot-bearing component in canonical order: the allocator,
    /// then per-host drivers, net backends, storage frontends, storage
    /// backends, accel frontends, accel backends. [`Pod::snapshot`] and
    /// [`Pod::restore`] both walk this order, so the two stay in lockstep
    /// by construction.
    fn snapshot_parts(&self) -> Vec<&dyn Snapshottable> {
        let mut v: Vec<&dyn Snapshottable> = vec![&self.allocator];
        for d in &self.drivers {
            match d {
                HostDriver::Oasis(fe) => v.push(fe),
                HostDriver::Local(ld) => v.push(ld),
            }
        }
        for be in &self.backends {
            v.push(be);
        }
        for fe in self.storage_frontends.iter().flatten() {
            v.push(fe);
        }
        for be in &self.storage_backends {
            v.push(be);
        }
        for fe in self.accel_frontends.iter().flatten() {
            v.push(fe);
        }
        for be in &self.accel_backends {
            v.push(be);
        }
        v
    }

    /// Mutable view of the same components, in the same order.
    fn snapshot_parts_mut(&mut self) -> Vec<&mut dyn Snapshottable> {
        let mut v: Vec<&mut dyn Snapshottable> = vec![&mut self.allocator];
        for d in &mut self.drivers {
            match d {
                HostDriver::Oasis(fe) => v.push(fe),
                HostDriver::Local(ld) => v.push(ld),
            }
        }
        for be in &mut self.backends {
            v.push(be);
        }
        for fe in self.storage_frontends.iter_mut().flatten() {
            v.push(fe);
        }
        for be in &mut self.storage_backends {
            v.push(be);
        }
        for fe in self.accel_frontends.iter_mut().flatten() {
            v.push(fe);
        }
        for be in &mut self.accel_backends {
            v.push(be);
        }
        v
    }

    /// Serialize the pod's logical state into a schema-versioned snapshot:
    /// a `Meta` section (sim-time, crashed-host set, component count)
    /// followed by one `Engine` section per [`Snapshottable`] component in
    /// canonical order (allocator first, then every device engine).
    ///
    /// Channel ring contents, NIC/SSD/accel device queues, and endpoint
    /// state are *topology*, not snapshot state: checkpoints are taken at
    /// quiesce points (between [`Pod::run`] windows, after in-flight
    /// traffic drains) and restored into a pod built from the same
    /// configuration, exactly like `fleet_replay --checkpoint/--resume`.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin_section(SnapshotSection::Meta);
        w.put_u64(self.now.as_nanos());
        w.put_u64(self.dead_host.len() as u64);
        for &dead in &self.dead_host {
            w.put_bool(dead);
        }
        let parts = self.snapshot_parts();
        w.put_u64(parts.len() as u64);
        w.end_section();
        for part in parts {
            w.begin_section(SnapshotSection::Engine);
            part.snapshot_state(&mut w);
            w.end_section();
        }
        w.finish()
    }

    /// Restore a snapshot produced by [`Pod::snapshot`] on an identically
    /// built pod. On any error the pod is left partially restored and must
    /// be discarded; the snapshot bytes themselves are never modified.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::open(bytes)?;
        let mut meta = r.section(SnapshotSection::Meta)?;
        let now = SimTime(meta.u64("pod sim-time")?);
        let hosts = meta.u64("pod host count")?;
        if hosts != self.dead_host.len() as u64 {
            return Err(SnapshotError::Corrupt("pod host count"));
        }
        let mut dead_host = Vec::with_capacity(hosts as usize);
        for _ in 0..hosts {
            dead_host.push(meta.bool("pod dead-host flag")?);
        }
        let parts_expected = meta.u64("pod component count")?;
        self.now = now;
        self.dead_host = dead_host;
        let mut restored = 0u64;
        for part in self.snapshot_parts_mut() {
            let mut er = r.section(SnapshotSection::Engine)?;
            part.restore_state(&mut er)?;
            restored += 1;
        }
        if restored != parts_expected {
            return Err(SnapshotError::Corrupt("pod component count"));
        }
        Ok(())
    }
}

/// Payload relayed between pods over an uplink: `(destination uplink index,
/// frame)`. The destination index is resolved by the fleet layer's routing
/// table before the message is enqueued.
pub type UplinkMsg = (usize, Frame);

impl ShardWorld for Pod {
    type Msg = UplinkMsg;

    fn next_time(&self) -> SimTime {
        self.next_activity()
    }

    /// One conservative window: absorb uplink arrivals onto the event
    /// timeline, then run the pod's own scheduler to the window end. A bare
    /// pod has no routing table, so uplink egress stays buffered in
    /// `uplink_out`; the fleet layer's shard wrapper drains it into
    /// `outbox` with per-link latencies.
    fn run_window(
        &mut self,
        until: SimTime,
        inbox: &mut Vec<Envelope<UplinkMsg>>,
        _outbox: &mut Vec<Outgoing<UplinkMsg>>,
    ) -> u64 {
        for env in inbox.drain(..) {
            let (uplink, frame) = env.msg;
            self.inject_uplink_frame(env.at, uplink, frame);
        }
        self.run_local(until)
    }
}
