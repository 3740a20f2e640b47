//! Multi-pod fleet integration: cross-pod UDP traffic over uplinks, with
//! byte-identical output at every `OASIS_SHARD_THREADS` setting.
//!
//! Two pods are joined by one Ethernet uplink. A client endpoint on pod 0
//! talks to an instance on pod 1 (and vice versa), so every request and
//! reply crosses the uplink and therefore exercises the conservative
//! window exchange. The whole simulation is then repeated at several
//! worker thread counts and the canonical metric snapshots must compare
//! equal byte for byte. Built with `--features sanitize,obs`, the same
//! comparison covers the ambient telemetry, and the coherence sanitizer
//! must report zero errors on every pod at every thread count.

use std::collections::VecDeque;

use oasis_core::config::OasisConfig;
use oasis_core::fleet::Fleet;
use oasis_core::instance::{AppKind, UdpApp, UdpResponse};
use oasis_core::pod::{Endpoint, PodBuilder};
use oasis_net::addr::{Ipv4Addr, MacAddr};
use oasis_net::packet::{Frame, UdpPacket};
use oasis_sim::time::{SimDuration, SimTime};

struct Echo;

impl UdpApp for Echo {
    fn on_datagram(
        &mut self,
        _now: SimTime,
        src: (Ipv4Addr, u16),
        dst_port: u16,
        payload: &[u8],
    ) -> Vec<UdpResponse> {
        vec![UdpResponse {
            delay: SimDuration::from_micros(1),
            dst: src,
            src_port: dst_port,
            payload: payload.to_vec(),
        }]
    }
}

/// Paced UDP client endpoint (same shape as the pod_echo one).
struct Client {
    mac: MacAddr,
    ip: Ipv4Addr,
    dst_mac: MacAddr,
    dst_ip: Ipv4Addr,
    gap: SimDuration,
    remaining: u32,
    next_send: SimTime,
    seq: u64,
    inbox: VecDeque<(SimTime, Frame)>,
    echoes: u64,
}

impl Client {
    fn new(id: u64, dst_mac: MacAddr, dst_ip: Ipv4Addr, gap: SimDuration, count: u32) -> Self {
        Client {
            mac: MacAddr::client(id),
            ip: Ipv4Addr::client(id as u32),
            dst_mac,
            dst_ip,
            gap,
            remaining: count,
            next_send: SimTime::from_micros(10),
            seq: 0,
            inbox: VecDeque::new(),
            echoes: 0,
        }
    }
}

impl Endpoint for Client {
    fn next_time(&self) -> SimTime {
        let mut t = SimTime::MAX;
        if self.remaining > 0 {
            t = t.min(self.next_send);
        }
        if let Some(&(at, _)) = self.inbox.front() {
            t = t.min(at);
        }
        t
    }

    fn poll(&mut self, now: SimTime) -> Vec<Frame> {
        while let Some(&(at, _)) = self.inbox.front() {
            if at > now {
                break;
            }
            let (_, frame) = self.inbox.pop_front().unwrap();
            if let Some(udp) = UdpPacket::parse(&frame) {
                if udp.dst_ip == self.ip {
                    self.echoes += 1;
                }
            }
        }
        let mut out = Vec::new();
        if self.remaining > 0 && now >= self.next_send {
            let mut payload = vec![0u8; 64];
            payload[..8].copy_from_slice(&self.seq.to_le_bytes());
            out.push(
                UdpPacket {
                    src_mac: self.mac,
                    dst_mac: self.dst_mac,
                    src_ip: self.ip,
                    dst_ip: self.dst_ip,
                    src_port: 50000,
                    dst_port: 7,
                    payload: bytes::Bytes::from(payload),
                }
                .encode(),
            );
            self.seq += 1;
            self.remaining -= 1;
            self.next_send = now + self.gap;
        }
        out
    }

    fn deliver(&mut self, at: SimTime, frame: Frame) {
        self.inbox.push_back((at, frame));
    }
}

/// Build the two-pod scenario and run it to 4 ms with `threads` workers.
/// Returns (per-pod instance datagram counts, fleet snapshot JSON). With
/// the sanitizer compiled in, also asserts it saw no coherence errors.
fn run_cross_pod(threads: usize) -> (Vec<u64>, String) {
    let mut fleet = Fleet::with_threads(threads);

    let mut pods = Vec::new();
    for site in 0..2u32 {
        // Distinct sites: pods in one fleet share an L2 domain over the
        // uplinks, so their MAC/IP numbering must not collide.
        let mut b = PodBuilder::new(OasisConfig::default()).site(site);
        let inst_host = b.add_host();
        let _nic_host = b.add_nic_host();
        let mut pod = b.build();
        let inst = pod.launch_instance(inst_host, AppKind::Udp(Box::new(Echo)), 10_000);
        pods.push((pod, inst));
    }

    // Cross wiring: the client attached to each pod targets the *other*
    // pod's instance, so all request/reply traffic crosses the uplink.
    let (mac0, ip0) = (
        pods[0].0.instance_mac(pods[0].1),
        pods[0].0.instance_ip(pods[0].1),
    );
    let (mac1, ip1) = (
        pods[1].0.instance_mac(pods[1].1),
        pods[1].0.instance_ip(pods[1].1),
    );
    pods[0].0.add_endpoint(Box::new(Client::new(
        1,
        mac1,
        ip1,
        SimDuration::from_micros(50),
        30,
    )));
    pods[1].0.add_endpoint(Box::new(Client::new(
        2,
        mac0,
        ip0,
        SimDuration::from_micros(70),
        20,
    )));

    let insts: Vec<usize> = pods.iter().map(|(_, i)| *i).collect();
    for (pod, _) in pods {
        fleet.add_pod(pod).expect("distinct sites");
    }
    fleet
        .connect(0, 1, oasis_cxl::topology::UPLINK_LATENCY)
        .expect("first uplink");

    fleet.run(SimTime::from_millis(4)).expect("fleet run");

    let served: Vec<u64> = insts
        .iter()
        .enumerate()
        .map(|(p, &i)| fleet.pod(p).instances[i].stats.udp_datagrams)
        .collect();
    #[cfg(feature = "sanitize")]
    for p in 0..insts.len() {
        let san = &fleet.pod(p).pool.san;
        assert_eq!(
            san.error_count(),
            0,
            "pod {p} at {threads} threads: {}",
            san.summary()
        );
    }
    (served, fleet.metrics_snapshot().to_json())
}

#[test]
fn cross_pod_echo_crosses_the_uplink() {
    let (served, _) = run_cross_pod(1);
    // Pod 1's instance serves pod 0's 30 requests and vice versa — traffic
    // cannot complete without the uplink.
    assert_eq!(served, vec![20, 30]);
}

#[test]
fn fleet_output_is_byte_identical_at_any_thread_count() {
    let (served1, snap1) = run_cross_pod(1);
    for threads in [2, 8] {
        let (served, snap) = run_cross_pod(threads);
        assert_eq!(
            served, served1,
            "served counts diverge at {threads} threads"
        );
        assert_eq!(snap, snap1, "snapshot diverges at {threads} threads");
    }
}

#[test]
fn disconnected_pods_run_independently() {
    // No uplinks: each pod serves only its local client; the fleet must
    // still run (unbounded lookahead) rather than erroring.
    let mut fleet = Fleet::new();
    for site in 0..2u32 {
        let mut b = PodBuilder::new(OasisConfig::default()).site(site);
        let inst_host = b.add_host();
        let _nic_host = b.add_nic_host();
        let mut pod = b.build();
        let inst = pod.launch_instance(inst_host, AppKind::Udp(Box::new(Echo)), 10_000);
        let mac = pod.instance_mac(inst);
        let ip = pod.instance_ip(inst);
        pod.add_endpoint(Box::new(Client::new(
            9,
            mac,
            ip,
            SimDuration::from_micros(40),
            10,
        )));
        fleet.add_pod(pod).expect("distinct sites");
    }
    fleet.run(SimTime::from_millis(2)).expect("fleet run");
    for p in 0..fleet.pods() {
        assert_eq!(fleet.pod(p).instances[0].stats.udp_datagrams, 10);
        assert_eq!(fleet.pod(p).now(), SimTime::from_millis(2));
    }
}

#[test]
fn zero_latency_uplink_is_a_deterministic_error() {
    let mut fleet = Fleet::new();
    for site in 0..2u32 {
        let mut b = PodBuilder::new(OasisConfig::default()).site(site);
        b.add_nic_host();
        fleet.add_pod(b.build()).expect("distinct sites");
    }
    fleet
        .connect(0, 1, SimDuration::ZERO)
        .expect("connect itself accepts any latency");
    let err = fleet.run(SimTime::from_millis(1)).unwrap_err();
    assert!(err.to_string().contains("lookahead"), "got: {err}");
}

/// A minimal pod with one instance-capable host and one NIC host.
fn small_pod(site: u32) -> oasis_core::pod::Pod {
    let mut b = PodBuilder::new(OasisConfig::default()).site(site);
    b.add_host();
    b.add_nic_host();
    b.build()
}

#[test]
fn duplicate_site_is_a_typed_error() {
    use oasis_core::error::FleetError;
    let mut fleet = Fleet::new();
    fleet.add_pod(small_pod(3)).expect("first pod");
    match fleet.add_pod(small_pod(3)) {
        Err(FleetError::DuplicateSite { site: 3, pod: 0 }) => {}
        other => panic!("expected DuplicateSite, got {other:?}"),
    }
    // The rejected pod must not have been registered.
    assert_eq!(fleet.pods(), 1);
}

#[test]
fn self_and_duplicate_links_are_typed_errors() {
    use oasis_core::error::FleetError;
    let mut fleet = Fleet::new();
    fleet.add_pod(small_pod(0)).unwrap();
    fleet.add_pod(small_pod(1)).unwrap();
    assert_eq!(
        fleet.connect(0, 0, SimDuration::from_micros(2)),
        Err(FleetError::SelfLink { pod: 0 })
    );
    assert_eq!(
        fleet.connect(0, 7, SimDuration::from_micros(2)),
        Err(FleetError::NoSuchPod(7))
    );
    fleet.connect(0, 1, SimDuration::from_micros(2)).unwrap();
    // Either direction counts as the same link.
    assert_eq!(
        fleet.connect(1, 0, SimDuration::from_micros(5)),
        Err(FleetError::DuplicateLink { a: 0, b: 1 })
    );
}

#[test]
fn control_plane_commands_drive_live_placement() {
    use oasis_core::allocator::{FleetCommand, FleetResponse};
    use oasis_core::error::FleetError;

    let mut fleet = Fleet::new();
    for site in 0..2u32 {
        fleet.add_pod(small_pod(site)).unwrap();
    }
    fleet
        .connect(0, 1, oasis_cxl::topology::UPLINK_LATENCY)
        .unwrap();

    // Topology commands may not bypass the wiring path.
    assert_eq!(
        fleet.execute(
            SimTime::ZERO,
            &FleetCommand::AddLink {
                a: 0,
                b: 1,
                latency_ns: 1
            }
        ),
        Err(FleetError::TopologyManaged)
    );

    // Create through the typed command API: the allocator picks the pod
    // and host, and a live instance is launched there.
    let (id, pod, inst) = fleet
        .create_instance(
            SimTime::ZERO,
            AppKind::Udp(Box::new(Echo)),
            8,
            32,
            0,
            10_000,
            None,
        )
        .expect("fleet has capacity");
    assert!(pod < 2);
    assert_eq!(fleet.pod(pod).instances[inst].stats.rx_frames, 0);

    // Resize and query flow through the same replicated service.
    let resized = fleet
        .execute(
            SimTime::from_micros(1),
            &FleetCommand::ResizeInstance {
                at: 1_000,
                id,
                nic_mbps: 20_000,
                ssd: 0,
            },
        )
        .unwrap();
    assert_eq!(resized, FleetResponse::Resized { id });

    let FleetResponse::State(report) = fleet
        .execute(SimTime::from_micros(2), &FleetCommand::QueryFleetState)
        .unwrap()
    else {
        panic!("expected a state report");
    };
    assert_eq!(report.live, 1);
    assert_eq!(report.pods.len(), 2);
    assert_eq!(report.pods[pod].nic_mbps_used, 20_000);

    // Kill releases fleet capacity and the log stays consistent.
    fleet
        .execute(
            SimTime::from_micros(3),
            &FleetCommand::KillInstance { at: 3_000, id },
        )
        .unwrap();
    assert_eq!(
        fleet.execute(
            SimTime::from_micros(4),
            &FleetCommand::KillInstance { at: 4_000, id }
        ),
        Err(FleetError::NoSuchInstance(id))
    );
    assert!(fleet.allocator().consistent_with_log());

    // The fleet snapshot carries the control-plane counters.
    let snap = fleet.metrics_snapshot();
    assert_eq!(snap.counter("core.fleet_pods", 0), 2);
    assert_eq!(snap.counter("core.fleet_instances_placed", 0), 1);
    assert_eq!(snap.counter("core.fleet_instances_killed", 0), 1);
}

#[test]
fn live_migration_commits_over_the_cxl_path() {
    use oasis_core::allocator::TransferPath;

    let mut fleet = Fleet::new();
    for site in 0..2u32 {
        fleet.add_pod(small_pod(site)).unwrap();
    }
    fleet
        .connect(0, 1, oasis_cxl::topology::UPLINK_LATENCY)
        .unwrap();
    let (id, src_pod, _) = fleet
        .create_instance(SimTime::ZERO, AppKind::None, 8, 32, 0, 10_000, Some(0))
        .expect("pod 0 has capacity");
    assert_eq!(src_pod, 0);

    let outcome = fleet
        .migrate_instance(SimTime::from_micros(5), id, 1, TransferPath::Cxl)
        .expect("migration commits");
    assert!(outcome.rounds >= 1);
    assert!(
        outcome.bytes_moved >= 32u64 << 30,
        "moves at least the state"
    );

    let st = &fleet.allocator().state;
    let inst = st.instances[id as usize].expect("instance survives");
    assert_eq!(inst.pod, 1, "instance re-homed to the target pod");
    assert!(st.migration(id).is_none(), "ticket closed");
    assert_eq!(st.migrations_committed, 1);
    assert!(fleet.allocator().consistent_with_log());

    // Transfer metrics land on the CXL tag; the NIC tag stays absent.
    let snap = fleet.metrics_snapshot();
    assert_eq!(snap.counter("core.fleet_migrations_started", 0), 1);
    assert_eq!(snap.counter("core.fleet_migrations_committed", 0), 1);
    assert_eq!(
        snap.counter("core.fleet_migration_rounds", 0),
        outcome.rounds as u64
    );
    assert_eq!(
        snap.counter("core.fleet_migration_bytes", 0),
        outcome.bytes_moved
    );
    assert_eq!(snap.counter("core.fleet_migration_bytes", 1), 0);
}

#[test]
fn failed_target_launch_rolls_the_migration_back() {
    use oasis_core::allocator::TransferPath;
    use oasis_core::error::FleetError;

    let mut fleet = Fleet::new();
    fleet.add_pod(small_pod(0)).unwrap();
    // Target pod with two NICs: fleet-level capacity is their sum, but
    // pod-local admission needs a single NIC with the whole lease spare.
    let mut b = PodBuilder::new(OasisConfig::default()).site(1);
    b.add_host();
    b.add_nic_host();
    b.add_nic_host();
    fleet.add_pod(b.build()).unwrap();
    fleet
        .connect(0, 1, oasis_cxl::topology::UPLINK_LATENCY)
        .unwrap();

    let (id, _, _) = fleet
        .create_instance(SimTime::ZERO, AppKind::None, 8, 32, 0, 50_000, Some(0))
        .expect("pod 0 has capacity");
    // Fragment the target: each NIC ends up 60/100 Gbit/s used, so pod 1
    // has 80 Gbit/s free in aggregate but no NIC with 50 Gbit/s spare.
    for _ in 0..2 {
        fleet
            .create_instance(SimTime::ZERO, AppKind::None, 8, 32, 0, 60_000, Some(1))
            .expect("pod 1 has aggregate capacity");
    }

    let err = fleet
        .migrate_instance(SimTime::from_micros(5), id, 1, TransferPath::Nic)
        .expect_err("target launch must fail on fragmented NICs");
    assert!(matches!(err, FleetError::Pod(_)), "got: {err:?}");

    // Compensating rollback: the ticket is gone, the target reservation
    // released, and the source never stopped serving.
    let st = &fleet.allocator().state;
    let inst = st.instances[id as usize].expect("instance survives");
    assert_eq!(inst.pod, 0, "source keeps the instance");
    assert!(st.migration(id).is_none(), "ticket rolled back");
    assert_eq!(st.migrations_aborted, 1);
    assert!(fleet.allocator().consistent_with_log());
}
