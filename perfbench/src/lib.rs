//! Layered benchmark for the Oasis simulator.
//!
//! Three workloads, each loading a different slice of the stack (see
//! `perfbench/README.md` for why each exists and which layers it
//! bypasses). A workload is split into [`Workload::setup`] (input
//! generation plus pod/fleet/allocator build) and [`Workload::run`] (the
//! measured simulation), so the two can be timed apart. Every run
//! returns an [`Outcome`]: the simulated results, a digest of every
//! simulated statistic, and the correctness violations found.

pub mod device_io;
pub mod fleet_control;
pub mod layers;
pub mod pod_pair_mux;
pub mod stats;
pub mod tracer;

use oasis_obs::MetricsSnapshot;
use tracer::Tracer;

/// The benchmark's workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["pod_pair_mux", "device_io", "fleet_control"];

/// Every end-to-end metric as `(name, unit)`, in report order (the
/// contract with `BENCHMARK.json`'s `end_to_end` list; a test checks it).
/// The first three are host-time, the rest sim-time.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sim_ops_per_s", "ops/s"),
    ("peak_rss_mib", "MiB"),
    ("delivered_ratio", "fraction"),
    ("rtt_p50_us", "us"),
    ("rtt_p999_us", "us"),
    ("io_kiops", "kops/sim-s"),
    ("payload_gbps", "Gbit/sim-s"),
    ("placed_ratio", "fraction"),
];

/// Seed used when none is given (`run.py --report` sets it beside a
/// held-out seed that was never used to tune).
pub const DEFAULT_SEED: u64 = 1;

/// What one measured run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// Simulated operations (datagrams sent or echoed, I/Os and jobs
    /// completed, commands executed). Depends only on the seed.
    pub ops: u64,
    /// Requests issued (datagrams, I/Os and jobs, commands).
    pub attempted: u64,
    /// Requests lost or completed with an error status.
    pub failed: u64,
    /// Sim-time round trips after warm-up, ns.
    pub rtt_ns: Vec<u64>,
    /// Grid the round trips were observed on, ns (1 = exact).
    pub rtt_quantum_ns: u64,
    /// Completed requests per simulated second.
    pub ops_per_sim_s: f64,
    /// Payload bits moved per simulated nanosecond (= Gbit/s).
    pub payload_gbps: f64,
    /// Placements granted.
    pub placed: u64,
    /// Placements requested.
    pub place_requests: u64,
    /// Digest of every simulated statistic (snapshot JSON plus the
    /// benchmark's own sim-time samples): identical for identical seeds.
    pub digest: u64,
    /// The program's canonical metrics snapshot after the run.
    pub snapshot: MetricsSnapshot,
    /// Host seconds of each window of the run. Windows cut the run at
    /// fixed points of simulated work, so window `i` does the same work in
    /// every repetition of one seed.
    pub window_s: Vec<f64>,
    /// Workload-specific per-layer values the snapshot does not carry.
    pub layer: Vec<(&'static str, f64)>,
    /// Paper references printed beside end-to-end sim-time metrics, by
    /// metric name; every other sim-time figure is an unvalidated model.
    pub references: Vec<(&'static str, &'static str)>,
    /// Output checks that failed (empty when the run is correct).
    pub violations: Vec<String>,
    /// Human-readable lines: references beside the model, sample counts.
    pub notes: Vec<String>,
}

/// One of the benchmark's workloads.
pub enum Workload {
    /// Two pods, shared-NIC layout, cross-pod bursty UDP echo.
    PodPairMux(Box<pod_pair_mux::World>),
    /// One pod, four instance hosts, closed-loop block I/O plus accel.
    DeviceIo(Box<device_io::World>),
    /// 64-pod fleet control plane: replay, checkpoint, migration storm.
    FleetControl(Box<fleet_control::World>),
}

impl Workload {
    /// Generate the inputs from `seed` and build the simulated system.
    /// `threads` is the shard worker count where the workload shards.
    pub fn setup(name: &str, seed: u64, threads: usize, tracer: &mut Tracer) -> Option<Self> {
        Some(match name {
            "pod_pair_mux" => {
                Workload::PodPairMux(Box::new(pod_pair_mux::setup(seed, threads, tracer)))
            }
            "device_io" => Workload::DeviceIo(Box::new(device_io::setup(seed, tracer))),
            "fleet_control" => Workload::FleetControl(Box::new(fleet_control::setup(seed, tracer))),
            _ => return None,
        })
    }

    /// Run the simulation to completion and check its outputs.
    pub fn run(self, tracer: &mut Tracer) -> Outcome {
        match self {
            Workload::PodPairMux(w) => pod_pair_mux::run(*w, tracer),
            Workload::DeviceIo(w) => device_io::run(*w, tracer),
            Workload::FleetControl(w) => fleet_control::run(*w, tracer),
        }
    }
}

/// Host-time stopwatch that a run cuts into windows of identical work.
pub struct HostWindows {
    last: std::time::Instant,
    window_s: Vec<f64>,
}

impl HostWindows {
    /// Start the first window now.
    pub fn start() -> Self {
        HostWindows {
            last: std::time::Instant::now(),
            window_s: Vec::new(),
        }
    }

    /// Close the current window and open the next.
    pub fn cut(&mut self) {
        let now = std::time::Instant::now();
        self.window_s.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// Close the last window and return every window's host seconds.
    pub fn finish(mut self) -> Vec<f64> {
        self.cut();
        self.window_s
    }
}

/// Digest of a snapshot's canonical JSON folded with extra words.
pub fn digest(snapshot: &MetricsSnapshot, words: &[u64]) -> u64 {
    let h = stats::fnv1a(stats::FNV_OFFSET, snapshot.to_json().as_bytes());
    stats::fnv1a_words(h, words)
}
