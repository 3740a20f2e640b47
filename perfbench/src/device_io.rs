//! `device_io`: pooled block I/O and compute offload in one pod.
//!
//! Four NIC-less instance hosts share a device host carrying one SSD and
//! one accelerator. Each instance host runs a closed loop at a fixed
//! queue depth: a read/write mix of 4 KiB and 64 KiB block I/Os against
//! its own volume (`Pod::volume_read` / `volume_write`), plus a few
//! 16 KiB checksum jobs kept outstanding (`Pod::submit_accel_job`). It
//! uses the CXL pool for bulk DMA with writes beside reads, sends no
//! network traffic, and runs as a single shard (`Pod::run`): the bypass
//! case for `net`, `engine_net` and multi-shard `sim::shard`.

use std::collections::HashMap;

use oasis_accel::{fnv1a, AccelConfig, AccelOp};
use oasis_core::config::OasisConfig;
use oasis_core::instance::AppKind;
use oasis_core::pod::{Pod, PodBuilder, VolumeHandle};
use oasis_sim::rng::SimRng;
use oasis_sim::time::{SimDuration, SimTime};
use oasis_storage::ssd::SsdConfig;
use oasis_storage::BLOCK_SIZE;

use crate::stats::ratio;
use crate::tracer::Tracer;
use crate::{HostWindows, Outcome};

/// Instance hosts, each with its own volume and closed loop.
pub const HOSTS: usize = 4;
/// Block I/Os each host issues per run.
pub const IOS_PER_HOST: usize = 1_500;
/// Block I/Os each host keeps in flight.
pub const QUEUE_DEPTH: usize = 8;
/// Checksum jobs each host keeps in flight while its I/O runs.
pub const JOBS_IN_FLIGHT: usize = 1;
/// Accelerator job input size.
pub const JOB_BYTES: usize = 16 * 1024;
/// Share of block I/Os that are reads.
const READ_SHARE: f64 = 0.7;
/// Share of block I/Os that are 64 KiB (the rest are 4 KiB).
const LARGE_SHARE: f64 = 0.25;
/// Volume size per host, blocks (4 x 768 of the SSD's 4096).
const VOLUME_BLOCKS: u64 = 768;
/// Distinct job inputs per host (cycled).
const JOB_INPUTS: usize = 16;
/// The benchmark polls completions every simulated microsecond, so a
/// round trip is known to within 1 µs.
const STEP: SimDuration = SimDuration::from_micros(1);
/// Host time is recorded per this many steps (1 simulated ms).
const WINDOW_STEPS: u64 = 1_000;
/// Round trips are recorded for requests issued after this warm-up.
const WARMUP: SimTime = SimTime::from_millis(2);
/// A run that has not drained by then is reported as stuck.
const SIM_LIMIT: SimTime = SimTime::from_secs(5);

#[derive(Clone, Copy)]
struct IoReq {
    write: bool,
    lba: u64,
    nlb: u32,
}

struct PendingIo {
    req: IoReq,
    issued: SimTime,
    /// Request id, shared by its submit span and its whole-I/O span.
    id: u64,
    /// Host time at submit when tracing.
    host_start: Option<u64>,
    /// Expected block words for a read (captured at issue; no write can
    /// overlap it while it is in flight).
    expect: Vec<u64>,
}

/// One instance host's closed loop and its model of its volume.
struct HostLoad {
    host: usize,
    vol: VolumeHandle,
    reqs: Vec<IoReq>,
    next_req: usize,
    pending: HashMap<u16, PendingIo>,
    /// The word every 8-byte lane of each block must read back as
    /// (0 = never written: the SSD's media starts zeroed).
    model: Vec<u64>,
    writes_in_flight: Vec<u16>,
    reads_in_flight: Vec<u16>,
    writes_issued: u64,
    /// Job inputs and their host-computed FNV-1a.
    inputs: Vec<(Vec<u8>, u64)>,
    next_job: usize,
    /// In-flight jobs: (input index, issued, request id, host start).
    jobs: HashMap<u16, (usize, SimTime, u64, Option<u64>)>,
}

impl HostLoad {
    fn conflicts(&self, r: &IoReq) -> bool {
        let span = r.lba as usize..(r.lba + r.nlb as u64) as usize;
        if r.write {
            span.clone().any(|b| self.writes_in_flight[b] > 0)
                || span.into_iter().any(|b| self.reads_in_flight[b] > 0)
        } else {
            span.into_iter().any(|b| self.writes_in_flight[b] > 0)
        }
    }

    fn mark(&mut self, r: &IoReq, delta: i32) {
        let counts = if r.write {
            &mut self.writes_in_flight
        } else {
            &mut self.reads_in_flight
        };
        for b in r.lba..r.lba + r.nlb as u64 {
            counts[b as usize] = (counts[b as usize] as i32 + delta) as u16;
        }
    }
}

/// The built pod and the per-host request plans, ready to run.
pub struct World {
    pod: Pod,
    loads: Vec<HostLoad>,
    seed: u64,
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generate every host's request plan and job inputs from `seed`, then
/// build the pod.
pub fn setup(seed: u64, tracer: &mut Tracer) -> World {
    let open = tracer.enter("bench.input_gen", 0);
    let mut plans = Vec::new();
    for h in 0..HOSTS {
        let mut rng = SimRng::new(mix(seed ^ (h as u64 + 1)));
        let reqs: Vec<IoReq> = (0..IOS_PER_HOST)
            .map(|_| {
                let write = !rng.chance(READ_SHARE);
                let nlb = if rng.chance(LARGE_SHARE) { 16 } else { 1 };
                let lba = rng.range_u64(0, VOLUME_BLOCKS - nlb as u64 + 1);
                IoReq { write, lba, nlb }
            })
            .collect();
        let inputs: Vec<(Vec<u8>, u64)> = (0..JOB_INPUTS)
            .map(|_| {
                let base = rng.next_u64();
                let input: Vec<u8> = (0..JOB_BYTES / 8)
                    .flat_map(|i| mix(base ^ i as u64).to_le_bytes())
                    .collect();
                let sum = fnv1a(&input);
                (input, sum)
            })
            .collect();
        plans.push((reqs, inputs));
    }
    tracer.exit(open);

    let open = tracer.enter("core.pod_build", 0);
    let mut b = PodBuilder::new(OasisConfig::default());
    let hosts: Vec<usize> = (0..HOSTS).map(|_| b.add_host()).collect();
    // The device host also carries the pod's one NIC: every instance
    // needs a NIC lease to launch, though this workload sends no frames.
    let dev = b.add_nic_host();
    b.add_ssd(dev, SsdConfig::default());
    b.add_accel(dev, AccelConfig::default());
    let mut pod = b.build();
    let mut loads = Vec::new();
    for (&host, (reqs, inputs)) in hosts.iter().zip(plans) {
        let inst = pod.launch_instance(host, AppKind::None, 1_000);
        let vol = pod
            .create_volume(inst, VOLUME_BLOCKS)
            .expect("the SSD holds every host's volume");
        loads.push(HostLoad {
            host,
            vol,
            reqs,
            next_req: 0,
            pending: HashMap::new(),
            model: vec![0; VOLUME_BLOCKS as usize],
            writes_in_flight: vec![0; VOLUME_BLOCKS as usize],
            reads_in_flight: vec![0; VOLUME_BLOCKS as usize],
            writes_issued: 0,
            inputs,
            next_job: 0,
            jobs: HashMap::new(),
        });
    }
    tracer.exit(open);
    World { pod, loads, seed }
}

/// The word each 8-byte lane of a written block holds (never 0).
fn block_word(seed: u64, host: usize, write: u64, block: u64) -> u64 {
    mix(seed ^ ((host as u64) << 56) ^ (write << 20) ^ block) | 1
}

fn block_data(words: &[u64]) -> Vec<u8> {
    let lanes = BLOCK_SIZE as usize / 8;
    words
        .iter()
        .flat_map(|w| std::iter::repeat_n(w.to_le_bytes(), lanes).flatten())
        .collect()
}

fn matches_words(data: &[u8], words: &[u64]) -> bool {
    data.len() == words.len() * BLOCK_SIZE as usize
        && data
            .chunks_exact(BLOCK_SIZE as usize)
            .zip(words)
            .all(|(blk, &w)| {
                blk.chunks_exact(8)
                    .all(|lane| u64::from_le_bytes(lane.try_into().expect("8 bytes")) == w)
            })
}

/// Drive every host's closed loop until all I/O has completed and the
/// last jobs have drained; check every read and job result.
pub fn run(mut w: World, tracer: &mut Tracer) -> Outcome {
    let mut violations = Vec::new();
    let mut rtt_ns = Vec::new();
    let (mut ios, mut jobs, mut errors, mut submitted) = (0u64, 0u64, 0u64, 0u64);
    let mut words = Vec::new();
    let mut step = 0u64;
    let mut req_id = 0u64;
    let mut windows = HostWindows::start();
    loop {
        let now = w.pod.now();
        let mut busy = false;
        for load in w.loads.iter_mut() {
            // Top up block I/O to the queue depth, in plan order.
            while load.pending.len() < QUEUE_DEPTH && load.next_req < load.reqs.len() {
                let r = load.reqs[load.next_req];
                if load.conflicts(&r) {
                    break;
                }
                let span = r.lba as usize..(r.lba + r.nlb as u64) as usize;
                let host_start = tracer.mark();
                let (cid, expect) = if r.write {
                    load.writes_issued += 1;
                    let new: Vec<u64> = span
                        .clone()
                        .map(|b| block_word(w.seed, load.host, load.writes_issued, b as u64))
                        .collect();
                    let data = block_data(&new);
                    let cid = tracer.time("core.volume_submit", req_id, || {
                        w.pod.volume_write(load.vol, r.lba, &data)
                    });
                    if cid.is_some() {
                        load.model[span].copy_from_slice(&new);
                    }
                    (cid, Vec::new())
                } else {
                    let cid = tracer.time("core.volume_submit", req_id, || {
                        w.pod.volume_read(load.vol, r.lba, r.nlb)
                    });
                    (cid, load.model[span].to_vec())
                };
                let Some(cid) = cid else { break }; // backpressured: retry next step
                submitted += 1;
                load.mark(&r, 1);
                load.next_req += 1;
                load.pending.insert(
                    cid,
                    PendingIo {
                        req: r,
                        issued: now,
                        id: req_id,
                        host_start,
                        expect,
                    },
                );
                req_id += 1;
            }
            // Keep checksum jobs outstanding while this host's I/O runs.
            while load.jobs.len() < JOBS_IN_FLIGHT && load.next_req < load.reqs.len() {
                let k = load.next_job % JOB_INPUTS;
                let input = &load.inputs[k].0;
                let host_start = tracer.mark();
                let r = tracer.time("core.accel_submit", req_id, || {
                    w.pod
                        .submit_accel_job(load.host, AccelOp::Checksum, 0, input)
                });
                match r {
                    Ok(Some(cid)) => {
                        submitted += 1;
                        load.next_job += 1;
                        load.jobs.insert(cid, (k, now, req_id, host_start));
                        req_id += 1;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        violations.push(format!("accel submit on host {}: {e:?}", load.host));
                        break;
                    }
                }
            }
            busy |= !load.pending.is_empty()
                || !load.jobs.is_empty()
                || load.next_req < load.reqs.len();
        }
        if !busy {
            break;
        }
        if now >= SIM_LIMIT {
            violations.push(format!("device_io did not drain by {SIM_LIMIT:?}"));
            break;
        }
        step += 1;
        if step.is_multiple_of(WINDOW_STEPS) {
            windows.cut();
        }
        let open = tracer.enter("core.pod_run", step);
        w.pod.run(now + STEP);
        tracer.exit(open);
        let done_at = w.pod.now();

        for load in w.loads.iter_mut() {
            let done = tracer.time("core.storage_take", step, || {
                w.pod.take_storage_completions(load.host)
            });
            for io in done {
                let Some(p) = load.pending.remove(&io.cid) else {
                    violations.push(format!("host {}: unknown I/O cid {}", load.host, io.cid));
                    continue;
                };
                load.mark(&p.req, -1);
                tracer.record_since("core.storage_io", p.id, p.host_start);
                ios += 1;
                let rtt = (done_at - p.issued).as_nanos();
                words.push(rtt);
                if p.issued >= WARMUP {
                    rtt_ns.push(rtt);
                }
                if !io.status.is_ok() {
                    errors += 1;
                } else if !p.req.write
                    && !io
                        .data
                        .as_deref()
                        .is_some_and(|d| matches_words(d, &p.expect))
                {
                    violations.push(format!(
                        "host {}: read of lba {} x{} returned other bytes than last written",
                        load.host, p.req.lba, p.req.nlb
                    ));
                }
            }
            let done = tracer.time("core.accel_take", step, || {
                w.pod.take_accel_completions(load.host)
            });
            for job in done {
                let Some((k, issued, id, host_start)) = load.jobs.remove(&job.cid) else {
                    violations.push(format!("host {}: unknown job cid {}", load.host, job.cid));
                    continue;
                };
                tracer.record_since("core.accel_job", id, host_start);
                jobs += 1;
                let rtt = (done_at - issued).as_nanos();
                words.push(rtt);
                if issued >= WARMUP {
                    rtt_ns.push(rtt);
                }
                if !job.status.is_ok() {
                    errors += 1;
                } else if job.result != load.inputs[k].1 {
                    violations.push(format!(
                        "host {}: checksum job returned {:#x}, host FNV-1a is {:#x}",
                        load.host, job.result, load.inputs[k].1
                    ));
                }
            }
        }
    }

    let window_s = windows.finish();
    let sim_ns = w.pod.now().as_nanos();
    let snapshot = w.pod.metrics_snapshot();
    words.extend([ios, jobs, errors, sim_ns]);
    let digest = crate::digest(&snapshot, &words);
    let notes = vec![format!(
        "{ios} block I/Os and {jobs} checksum jobs in {:.3} sim-ms; {} round trips after the {} ms warm-up",
        sim_ns as f64 / 1e6,
        rtt_ns.len(),
        WARMUP.as_nanos() / 1_000_000
    )];
    Outcome {
        ops: ios + jobs,
        attempted: submitted,
        failed: errors + (submitted - ios - jobs),
        rtt_ns,
        rtt_quantum_ns: STEP.as_nanos(),
        ops_per_sim_s: ratio(ios * 1_000_000_000, sim_ns),
        payload_gbps: ratio(jobs * JOB_BYTES as u64 * 8, sim_ns),
        placed: 2 * HOSTS as u64,
        place_requests: 2 * HOSTS as u64,
        digest,
        snapshot,
        window_s,
        layer: Vec::new(),
        references: Vec::new(),
        violations,
        notes,
    }
}
