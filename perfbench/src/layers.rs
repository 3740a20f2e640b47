//! Per-layer metrics: counters the program already exports through its
//! `MetricsSnapshot`, plus host-time figures derived from the benchmark's
//! own spans around each layer call.
//!
//! Every workload reports every metric; a layer the workload bypasses
//! reads 0. The table below is the contract with `BENCHMARK.json`'s
//! `per_layer` list (a test checks the two agree).

use std::collections::BTreeMap;

use oasis_obs::MetricsSnapshot;

use crate::stats::{percentile, ratio, tail};
use crate::tracer::SpanStats;

/// Counters only an `--features obs` build of the simulator collects;
/// the traced run takes them from that build. (`channel.empty_polls` is
/// not among them: `Pod::metrics_snapshot` exports no channel-endpoint
/// counters in either build.)
pub const OBS_COUNTERS: [(&str, &str); 5] = [
    ("sim.sched_dispatches", "count"),
    ("sim.sched_idle_skips", "count"),
    ("sim.shard_windows", "count"),
    ("sim.shard_messages", "count"),
    ("sim.shard_barrier_stalls", "count"),
];

/// Snapshot counters reported as they are (summed over tags).
const COUNTERS: [&str; 24] = [
    "cxl.cache_flushes",
    "cxl.cache_writebacks",
    "cxl.link_bytes_payload",
    "cxl.link_bytes_message",
    "cxl.link_bytes_control",
    "channel.dedup_drops",
    "core.net_fe_tx_drop_channel",
    "core.net_be_rx_drop_channel",
    "core.net_fe_tx_packets",
    "core.net_be_rx_forwarded",
    "core.net_be_tx_drop_full",
    "core.net_fe_tx_drop_nobuf",
    "core.storage_fe_completed",
    "core.storage_fe_refused",
    "core.storage_fe_retries",
    "core.storage_fe_errors",
    "core.accel_fe_completed",
    "core.accel_fe_refused",
    "core.accel_fe_retries",
    "core.fleet_instances_placed",
    "core.fleet_placements_rejected",
    "core.fleet_spill_placements",
    "core.fleet_migrations_committed",
    "core.fleet_migrations_aborted",
];

/// Spans whose per-call host time is reported as p50, tail and count.
const TIMED_CALLS: [(&str, &str); 9] = [
    ("core.volume_submit", "core.volume_submit_host_ns"),
    ("core.storage_take", "core.storage_take_host_ns"),
    ("core.accel_submit", "core.accel_submit_host_ns"),
    ("core.accel_take", "core.accel_take_host_ns"),
    (
        "core.fleet_execute.create",
        "core.fleet_execute_host_ns.create",
    ),
    ("core.fleet_execute.kill", "core.fleet_execute_host_ns.kill"),
    (
        "core.fleet_execute.resize",
        "core.fleet_execute_host_ns.resize",
    ),
    (
        "core.fleet_execute.migrate",
        "core.fleet_execute_host_ns.migrate",
    ),
    (
        "core.fleet_execute.finish",
        "core.fleet_execute_host_ns.finish",
    ),
];

/// Which layer each span belongs to, for self-time totals.
const SPAN_LAYER: [(&str, &str); 20] = [
    ("core.fleet_run", "core.run_self_host_s"),
    ("core.pod_run", "core.run_self_host_s"),
    ("core.volume_submit", "core.storage_self_host_s"),
    ("core.storage_take", "core.storage_self_host_s"),
    ("core.accel_submit", "core.accel_self_host_s"),
    ("core.accel_take", "core.accel_self_host_s"),
    ("core.fleet_execute.create", "core.allocator_self_host_s"),
    ("core.fleet_execute.kill", "core.allocator_self_host_s"),
    ("core.fleet_execute.resize", "core.allocator_self_host_s"),
    ("core.fleet_execute.migrate", "core.allocator_self_host_s"),
    ("core.fleet_execute.finish", "core.allocator_self_host_s"),
    ("core.checkpoint", "core.snapshot_self_host_s"),
    ("core.restore", "core.snapshot_self_host_s"),
    ("trace.packet_gen", "trace.self_host_s"),
    ("trace.stream_gen", "trace.self_host_s"),
    ("trace.stranding", "trace.self_host_s"),
    ("core.fleet_build", "core.build_self_host_s"),
    ("core.pod_build", "core.build_self_host_s"),
    ("core.fleet_register", "core.build_self_host_s"),
    ("bench.input_gen", "bench.input_gen_self_host_s"),
];

/// Every per-layer metric as `(name, unit)`, in report order.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("sim.shard_speedup_2t".into(), "x"),
        ("sim.host_ns_per_op".into(), "ns"),
        ("cxl.cache_hit_ratio".into(), "fraction"),
        ("cxl.prefetch_useful_ratio".into(), "fraction"),
        ("core.run_host_share".into(), "fraction"),
        ("core.checkpoint_host_s".into(), "s"),
        ("core.restore_host_s".into(), "s"),
        ("core.checkpoint_bytes".into(), "bytes"),
        ("trace.packet_gen_host_s".into(), "s"),
        ("trace.stream_gen_host_s".into(), "s"),
        ("trace.stranding_host_s".into(), "s"),
        ("trace.stranding_pod_nic_ppb".into(), "ppb"),
        ("bench.trace_overhead_s".into(), "s"),
        ("bench.trace_overhead_share".into(), "fraction"),
    ];
    out.extend(OBS_COUNTERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out.extend(COUNTERS.iter().map(|&n| (n.to_string(), "count")));
    for (_, name) in TIMED_CALLS {
        out.push((format!("{name}.p50"), "ns"));
        out.push((format!("{name}.tail"), "ns"));
        out.push((format!("{name}.count"), "count"));
    }
    let mut layers: Vec<&str> = SPAN_LAYER.iter().map(|&(_, l)| l).collect();
    layers.dedup();
    out.extend(layers.into_iter().map(|l| (l.to_string(), "s")));
    out
}

/// Host-time measurements of one traced workload run.
pub struct HostTimes<'a> {
    /// Span totals of the traced run (setup and run).
    pub spans: &'a BTreeMap<&'static str, SpanStats>,
    /// Host seconds of the untraced and traced runs (median over reps).
    pub untraced_s: f64,
    /// See `untraced_s`.
    pub traced_s: f64,
    /// Simulated ops per run.
    pub ops: u64,
    /// 1-thread ÷ 2-thread host time, where the workload shards.
    pub shard_speedup_2t: f64,
}

/// Every per-layer metric except the [`OBS_COUNTERS`], by name.
pub fn derive(
    snapshot: &MetricsSnapshot,
    extra: &[(&'static str, f64)],
    t: &HostTimes<'_>,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let c = |n: &str| snapshot.counter_sum(n);
    let span_s = |name: &str| t.spans.get(name).map_or(0.0, |s| s.total_ns as f64 / 1e9);

    m.insert("sim.shard_speedup_2t".into(), t.shard_speedup_2t);
    m.insert(
        "sim.host_ns_per_op".into(),
        t.untraced_s * 1e9 / t.ops.max(1) as f64,
    );
    let hits = c("cxl.cache_hits");
    m.insert(
        "cxl.cache_hit_ratio".into(),
        ratio(hits, hits + c("cxl.cache_misses")),
    );
    let pf = c("cxl.cache_prefetches");
    m.insert(
        "cxl.prefetch_useful_ratio".into(),
        ratio(pf, pf + c("cxl.cache_prefetch_skips")),
    );
    for n in COUNTERS {
        m.insert(n.into(), c(n) as f64);
    }

    // Share of the measured run's host time spent inside Pod::run /
    // Fleet::run, against the submit/take/execute calls around it.
    let run_s = span_s("core.fleet_run") + span_s("core.pod_run");
    let call_s: f64 = TIMED_CALLS.iter().map(|&(s, _)| span_s(s)).sum();
    m.insert(
        "core.run_host_share".into(),
        if run_s + call_s > 0.0 {
            run_s / (run_s + call_s)
        } else {
            0.0
        },
    );
    m.insert("core.checkpoint_host_s".into(), span_s("core.checkpoint"));
    m.insert("core.restore_host_s".into(), span_s("core.restore"));
    m.insert("trace.packet_gen_host_s".into(), span_s("trace.packet_gen"));
    m.insert("trace.stream_gen_host_s".into(), span_s("trace.stream_gen"));
    m.insert("trace.stranding_host_s".into(), span_s("trace.stranding"));
    m.insert("core.checkpoint_bytes".into(), 0.0);
    m.insert("trace.stranding_pod_nic_ppb".into(), 0.0);
    for &(n, v) in extra {
        m.insert(n.into(), v);
    }

    for (span, name) in TIMED_CALLS {
        let d = t
            .spans
            .get(span)
            .map(|s| s.durations.as_slice())
            .unwrap_or(&[]);
        m.insert(format!("{name}.p50"), percentile(d, 50.0) as f64);
        m.insert(format!("{name}.tail"), tail(d).1 as f64);
        m.insert(format!("{name}.count"), d.len() as f64);
    }
    for (span, layer) in SPAN_LAYER {
        let s = t.spans.get(span).map_or(0.0, |s| s.self_ns as f64 / 1e9);
        *m.entry(layer.into()).or_insert(0.0) += s;
    }

    m.insert("bench.trace_overhead_s".into(), t.traced_s - t.untraced_s);
    m.insert(
        "bench.trace_overhead_share".into(),
        (t.traced_s - t.untraced_s) / t.untraced_s,
    );
    m
}

/// The [`OBS_COUNTERS`] read from an `obs`-build snapshot.
pub fn obs_counters(snapshot: &MetricsSnapshot) -> BTreeMap<String, f64> {
    OBS_COUNTERS
        .iter()
        .map(|&(n, _)| (n.to_string(), snapshot.counter_sum(n) as f64))
        .collect()
}
