//! `fleet_control`: the control plane of a 64-pod × 8-host ring fleet.
//!
//! A seeded `ArrivalStream` goes through the typed raft-logged command
//! API: Create, Kill, and a same-lease Resize of every 37th instance,
//! with round-robin home pods. The allocator is checkpointed at the
//! stream's midpoint, restored into a fresh allocator, and the stream
//! finishes on the restored one. A migration storm then runs
//! `MigrateInstance` + `FinishMigration` over both transfer paths with
//! both commit and abort outcomes. No simulated datapath runs at all: this
//! is the bypass case for `cxl`, `channel`, `net` and every engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use oasis_core::allocator::{
    FleetAllocator, FleetCommand, FleetResponse, PrecopyModel, TransferPath,
};
use oasis_core::error::FleetError;
use oasis_core::snapshot::{SnapshotReader, SnapshotSection, SnapshotWriter};
use oasis_cxl::topology::{FleetTopology, PodTopology, UPLINK_LATENCY};
use oasis_obs::MetricSink;
use oasis_sim::rng::SimRng;
use oasis_sim::time::{SimDuration, SimTime};
use oasis_trace::alloc_trace::{FleetPlacement, FleetReplay, HostCapacity};
use oasis_trace::{export_fleet_stranding, measure_fleet_stranding, ArrivalStream};

use crate::stats::ratio;
use crate::tracer::Tracer;
use crate::{HostWindows, Outcome};

/// Host time is recorded per this many arrivals.
const WINDOW_ARRIVALS: usize = 4_096;
/// Pods in the ring.
pub const PODS: usize = 64;
/// Hosts per pod.
pub const HOSTS_PER_POD: usize = 8;
/// Arrival-stream horizon (as `fleet_replay`'s stream).
pub const STREAM_HOURS: u64 = 14;
/// Every 37th placed instance gets a same-lease resize, as in
/// `fleet_replay`.
pub const RESIZE_EVERY: u64 = 37;
/// On the stream's second half, every this many arrivals the storm opens
/// one live migration.
pub const STORM_EVERY: usize = 2;
/// Share of storm migrations that take the CXL path (the rest use NIC).
const CXL_SHARE: f64 = 0.75;
/// Share of opened migrations that commit (the rest abort).
const COMMIT_SHARE: f64 = 0.7;

/// The command kinds timed separately in the traced run.
#[derive(Clone, Copy)]
enum Kind {
    Create,
    Kill,
    Resize,
    Migrate,
    Finish,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Create => "core.fleet_execute.create",
            Kind::Kill => "core.fleet_execute.kill",
            Kind::Resize => "core.fleet_execute.resize",
            Kind::Migrate => "core.fleet_execute.migrate",
            Kind::Finish => "core.fleet_execute.finish",
        }
    }
}

/// The generated stream and the registered (empty) fleet allocator.
pub struct World {
    stream: ArrivalStream,
    alloc: FleetAllocator,
    seed: u64,
}

/// Generate the arrival stream from `seed`, then register every pod and
/// ring link with a fresh allocator.
pub fn setup(seed: u64, tracer: &mut Tracer) -> World {
    let stream = tracer.time("trace.stream_gen", 0, || {
        ArrivalStream::generate(
            PODS * HOSTS_PER_POD,
            SimDuration::from_secs(STREAM_HOURS * 3600),
            seed,
        )
    });
    let open = tracer.enter("core.fleet_register", 0);
    let topo = FleetTopology::ring(
        PODS,
        PodTopology::production(HOSTS_PER_POD, 0),
        UPLINK_LATENCY,
    );
    let cap = HostCapacity::default();
    let mut alloc = FleetAllocator::new();
    for (p, pod) in topo.pods.iter().enumerate() {
        alloc
            .execute(
                SimTime::ZERO,
                &FleetCommand::RegisterPod {
                    pod: p as u32,
                    hosts: pod.hosts as u32,
                    vcpus_per_host: cap.vcpus,
                    mem_gb_per_host: cap.mem_gb,
                    nic_mbps: pod.hosts as u64 * cap.nic_mbps(),
                    ssd_cap: pod.hosts as u64 * cap.ssd_gb as u64,
                },
            )
            .expect("pods register in index order");
    }
    for l in &topo.links {
        alloc
            .execute(
                SimTime::ZERO,
                &FleetCommand::AddLink {
                    a: l.a as u32,
                    b: l.b as u32,
                    latency_ns: l.latency.as_nanos(),
                },
            )
            .expect("ring links are distinct");
    }
    tracer.exit(open);
    World {
        stream,
        alloc,
        seed,
    }
}

/// The allocator under test plus the benchmark's books on it.
struct Ctl<'t> {
    alloc: FleetAllocator,
    tracer: &'t mut Tracer,
    issued: u64,
    errors: u64,
    violations: Vec<String>,
}

impl Ctl<'_> {
    fn exec(
        &mut self,
        kind: Kind,
        at: u64,
        cmd: &FleetCommand,
    ) -> Result<FleetResponse, FleetError> {
        self.issued += 1;
        let alloc = &mut self.alloc;
        self.tracer.time(kind.span(), self.issued, || {
            alloc.execute(SimTime::from_nanos(at), cmd)
        })
    }

    fn fail(&mut self, what: String) {
        self.errors += 1;
        self.violations.push(what);
    }

    fn kill(&mut self, at: u64, id: u64) {
        if let Err(e) = self.exec(Kind::Kill, at, &FleetCommand::KillInstance { at, id }) {
            self.fail(format!("kill of live instance {id}: {e:?}"));
        }
    }

    /// Checkpoint the allocator, restore the bytes into a fresh one, check
    /// the two agree, and carry on with the restored allocator.
    fn checkpoint_and_restore(&mut self) -> u64 {
        let open = self.tracer.enter("core.checkpoint", 0);
        let mut wr = SnapshotWriter::new();
        wr.begin_section(SnapshotSection::FleetState);
        self.alloc.checkpoint(&mut wr);
        wr.end_section();
        let bytes = wr.finish();
        self.tracer.exit(open);
        let open = self.tracer.enter("core.restore", 0);
        let mut restored = FleetAllocator::new();
        let r = SnapshotReader::open(&bytes)
            .and_then(|mut r| r.section(SnapshotSection::FleetState))
            .and_then(|mut s| restored.restore(&mut s));
        self.tracer.exit(open);
        if let Err(e) = r {
            self.violations
                .push(format!("checkpoint does not restore: {e:?}"));
        } else if restored.state != self.alloc.state {
            self.violations
                .push("restored fleet state differs from the live state".into());
        } else if !restored.consistent_with_log() {
            self.violations
                .push("restored allocator is inconsistent with its log".into());
        }
        self.alloc = restored;
        bytes.len() as u64
    }
}

/// The migration storm: tickets opened on the live fleet and closed once
/// their pre-copy (the `PrecopyModel`, an unvalidated model) is done.
struct Storm {
    model: PrecopyModel,
    rng: SimRng,
    /// Open tickets as (pre-copy done, id, opened at, commit).
    tickets: BinaryHeap<Reverse<(u64, u64, u64, bool)>>,
    opened: usize,
    infeasible: u64,
    /// Ticket lifetimes, MigrateInstance to FinishMigration, ns.
    lifetimes: Vec<u64>,
    moved_bytes: u64,
    moved_ns: u64,
}

impl Storm {
    /// Finish every ticket whose pre-copy is done by `now`. The control
    /// plane acts on stream events, so a ticket closes at the first event
    /// after its copy ends (`at_done` closes each at its own end instead).
    fn close_due(&mut self, ctl: &mut Ctl<'_>, now: u64, at_done: bool) {
        while let Some(&Reverse((done, id, opened_at, commit))) = self.tickets.peek() {
            if done > now {
                break;
            }
            self.tickets.pop();
            if ctl.alloc.state.migration(id).is_none() {
                continue; // its instance departed mid-copy: the kill rolled it back
            }
            let at = if at_done { done } else { now };
            let finish = FleetCommand::FinishMigration { at, id, commit };
            match ctl.exec(Kind::Finish, at, &finish) {
                Ok(FleetResponse::MigrationFinished { committed, .. }) if committed == commit => {
                    self.lifetimes.push(at - opened_at);
                }
                other => ctl.fail(format!("finish({commit}) of {id} answered {other:?}")),
            }
        }
    }

    /// Open a migration of a random live instance to a ring neighbor.
    fn open(&mut self, ctl: &mut Ctl<'_>, now: u64, live: &[Reverse<(u64, u64)>]) {
        if live.is_empty() {
            return;
        }
        let id = live[self.rng.range_usize(0, live.len())].0 .1;
        let step = if self.rng.chance(0.5) {
            1
        } else {
            PODS as u32 - 1
        };
        let path = if self.rng.chance(CXL_SHARE) {
            TransferPath::Cxl
        } else {
            TransferPath::Nic
        };
        let commit = self.rng.chance(COMMIT_SHARE);
        let Some(Some(inst)) = ctl.alloc.state.instances.get(id as usize).copied() else {
            ctl.violations
                .push(format!("storm picked dead instance {id}"));
            return;
        };
        if ctl.alloc.state.migration(id).is_some() {
            return; // already migrating
        }
        self.opened += 1;
        let cmd = FleetCommand::MigrateInstance {
            at: now,
            id,
            dst_pod: (inst.pod + step) % PODS as u32,
            path,
        };
        match ctl.exec(Kind::Migrate, now, &cmd) {
            Ok(FleetResponse::MigrationStarted { .. }) => {
                let out = self.model.run(path, inst.vcpus, inst.mem_gb, inst.nic_mbps);
                self.moved_bytes += out.bytes_moved;
                self.moved_ns += out.total_ns;
                self.tickets
                    .push(Reverse((now + out.total_ns, id, now, commit)));
            }
            // The target pod has no room: a placement outcome, not a fault.
            Err(FleetError::MigrationInfeasible { .. }) => self.infeasible += 1,
            other => ctl.fail(format!("migrate of {id} answered {other:?}")),
        }
    }
}

/// Replay the stream (checkpoint/restore at its midpoint, migration storm
/// on its second half), drain, then check the allocator against its log
/// and its own books.
pub fn run(w: World, tracer: &mut Tracer) -> Outcome {
    let World {
        stream,
        alloc,
        seed,
    } = w;
    let mut ctl = Ctl {
        alloc,
        tracer,
        issued: 0,
        errors: 0,
        violations: Vec::new(),
    };
    let mut storm = Storm {
        model: PrecopyModel::default(),
        rng: SimRng::new(seed ^ 0x4D16_7A7E),
        tickets: BinaryHeap::new(),
        opened: 0,
        infeasible: 0,
        lifetimes: Vec::new(),
        moved_bytes: 0,
        moved_ns: 0,
    };
    let mut departures: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut placements = Vec::new();
    let mut rejected = 0u64;
    let mut checkpoint_bytes = 0u64;
    let midpoint = stream.duration.as_nanos() / 2;

    let mut windows = HostWindows::start();
    for (i, arr) in stream.arrivals.iter().enumerate() {
        if i % WINDOW_ARRIVALS == WINDOW_ARRIVALS - 1 {
            windows.cut();
        }
        let second_half = arr.at > midpoint;
        if second_half && checkpoint_bytes == 0 {
            checkpoint_bytes = ctl.checkpoint_and_restore();
        }
        storm.close_due(&mut ctl, arr.at, false);
        while let Some(&Reverse((ends, id))) = departures.peek() {
            if ends > arr.at {
                break;
            }
            departures.pop();
            ctl.kill(ends, id);
        }
        let ty = &stream.catalog[arr.type_idx];
        let nic_mbps = ty.nic_mbps() as u32;
        let create = FleetCommand::CreateInstance {
            at: arr.at,
            vcpus: ty.vcpus,
            mem_gb: ty.mem_gb,
            ssd: ty.ssd_gb,
            nic_mbps,
            home_pod: (i % PODS) as u32,
        };
        match ctl.exec(Kind::Create, arr.at, &create) {
            Ok(FleetResponse::Created {
                id,
                pod,
                host,
                device_pod,
            }) => {
                departures.push(Reverse((arr.ends, id)));
                placements.push(FleetPlacement {
                    type_idx: arr.type_idx,
                    start: SimTime::from_nanos(arr.at),
                    end: SimTime::from_nanos(arr.ends),
                    pod,
                    host,
                    device_pod,
                });
                if (id + 1) % RESIZE_EVERY == 0 {
                    let resize = FleetCommand::ResizeInstance {
                        at: arr.at,
                        id,
                        nic_mbps,
                        ssd: ty.ssd_gb,
                    };
                    if let Err(e) = ctl.exec(Kind::Resize, arr.at, &resize) {
                        ctl.fail(format!("resize of live instance {id}: {e:?}"));
                    }
                }
            }
            Ok(FleetResponse::Rejected) => rejected += 1,
            other => ctl.fail(format!("create answered {other:?}")),
        }
        if second_half && i % STORM_EVERY == 0 {
            storm.open(&mut ctl, arr.at, departures.as_slice());
        }
    }
    if checkpoint_bytes == 0 {
        ctl.violations
            .push("the stream never crossed its midpoint".into());
    }
    // Tickets still copying when the stream ends close when their copy
    // does; then every survivor departs.
    storm.close_due(&mut ctl, u64::MAX, true);
    while let Some(Reverse((ends, id))) = departures.pop() {
        ctl.kill(ends, id);
    }
    let Ctl {
        alloc,
        tracer,
        issued,
        errors,
        mut violations,
    } = ctl;
    let rtt_ns = std::mem::take(&mut storm.lifetimes);

    let st = &alloc.state;
    if !alloc.consistent_with_log() {
        violations.push("fleet state diverged from the raft log".into());
    }
    if st.migrations_started != st.migrations_committed + st.migrations_aborted {
        violations.push(format!(
            "migrations started {} != committed {} + aborted {}",
            st.migrations_started, st.migrations_committed, st.migrations_aborted
        ));
    }
    if !st.migrations.is_empty() || st.report().live != 0 {
        violations.push("tickets or instances left open after the drain".into());
    }

    let replay = FleetReplay {
        catalog: stream.catalog.clone(),
        host_cap: HostCapacity::default(),
        pod_hosts: vec![HOSTS_PER_POD; PODS],
        placements,
        rejected: rejected as usize,
        duration: SimTime::ZERO + stream.duration,
        state: alloc.state.clone(),
    };
    let stranding = tracer.time("trace.stranding", 0, || measure_fleet_stranding(&replay));
    let window_s = windows.finish();
    let mut sink = MetricSink::new();
    alloc.state.export_metrics(&mut sink);
    export_fleet_stranding(&stranding, &mut sink);
    let snapshot = sink.snapshot();
    let digest = crate::digest(&snapshot, &rtt_ns);

    let placed = alloc.state.placed;
    let mean_nic_ppb = stranding.iter().map(|p| p.nic_stranded_ppb).sum::<u64>() as f64
        / stranding.len().max(1) as f64;
    let notes = vec![format!(
        "{} arrivals, {placed} placed, {rejected} rejected; {} migrations tried, {} refused for lack of room, \
         {} finished (the rest rolled back by a departure); checkpoint {checkpoint_bytes} bytes",
        stream.arrivals.len(),
        storm.opened,
        storm.infeasible,
        rtt_ns.len()
    )];
    Outcome {
        ops: issued,
        attempted: issued,
        failed: errors,
        ops_per_sim_s: ratio(issued * 1_000_000_000, stream.duration.as_nanos()),
        payload_gbps: ratio(storm.moved_bytes * 8, storm.moved_ns),
        rtt_ns,
        rtt_quantum_ns: 1,
        placed,
        place_requests: placed + rejected,
        digest,
        snapshot,
        window_s,
        layer: vec![
            ("core.checkpoint_bytes", checkpoint_bytes as f64),
            ("trace.stranding_pod_nic_ppb", mean_nic_ppb),
        ],
        references: Vec::new(),
        violations,
        notes,
    }
}
