//! `oasis-perfbench`: run one workload, check its outputs, print metrics.
//!
//! ```text
//! oasis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--obs-counters]
//! ```
//!
//! `--trace 0` repeats setup + run for `--seconds` and prints every
//! end-to-end metric; `--trace 1` alternates untraced and traced
//! repetitions and prints the per-layer metrics. `--obs-counters` runs
//! once and prints only the counters an `obs` build collects. The last
//! stdout line is always one JSON object; any failed output check exits 1.

use std::collections::BTreeMap;
use std::time::Instant;

use oasis_perfbench::stats::{median, percentile_quantized};
use oasis_perfbench::tracer::Tracer;
use oasis_perfbench::{layers, Outcome, Workload, END_TO_END, WORKLOADS};

/// Shard worker threads for `pod_pair_mux`'s end-to-end run. Two threads
/// are slower than one on this workload and far noisier (README), so the
/// end-to-end figures use one; the traced run measures two beside it.
const E2E_THREADS: usize = 1;
/// Repetitions at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Set-ups timed per end-to-end run (each built and dropped), at least:
/// `setup_s` is their median.
const SETUP_SAMPLES: usize = 21;
/// Set-ups timed after each repetition.
const SETUPS_PER_REP: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    obs_counters: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: oasis_perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        obs_counters: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--obs-counters" => a.obs_counters = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(a)
}

/// One repetition: a fresh set-up, then the timed run.
struct Rep {
    run_s: f64,
    out: Outcome,
}

fn rep(a: &Args, threads: usize, tracer: &mut Tracer) -> Rep {
    let w = Workload::setup(&a.workload, a.seed, threads, tracer).expect("workload name checked");
    let t = Instant::now();
    let out = w.run(tracer);
    Rep {
        run_s: t.elapsed().as_secs_f64(),
        out,
    }
}

/// The run's host time, robust to interference: every repetition of one
/// seed does identical work in window `i`, so the fastest repetition of
/// each window is that work's time with the least interference, and their
/// sum is a run on a quiet machine. Other tenants only ever slow a window
/// down; the medians of a run that spends minutes in a slow phase move
/// with that phase, the minima much less (README, "Measured").
fn quiet_run_s(reps: &[Rep], errors: &mut Vec<String>) -> f64 {
    let n = reps[0].out.window_s.len();
    if let Some(r) = reps.iter().find(|r| r.out.window_s.len() != n) {
        errors.push(format!(
            "repetitions cut {} and {} host-time windows; the work is not deterministic",
            n,
            r.out.window_s.len()
        ));
        return reps.iter().map(|r| r.run_s).fold(f64::INFINITY, f64::min);
    }
    (0..n)
        .map(|w| {
            reps.iter()
                .map(|r| r.out.window_s[w])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Host seconds of one set-up (input generation plus build).
fn timed_setup(a: &Args, tracer: &mut Tracer) -> f64 {
    let t = Instant::now();
    let w = Workload::setup(&a.workload, a.seed, E2E_THREADS, tracer);
    let s = t.elapsed().as_secs_f64();
    drop(w);
    s
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_result(correct: bool, first: &Outcome, metrics: &[(String, f64, &str)]) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        first.attempted.max(1),
        first.failed,
        json_metrics(metrics)
    );
}

/// Checks shared by every mode: no violations, and every repetition of
/// one seed reproduces the first repetition's sim-stat digest.
fn check(reps: &[&Outcome], label: &str, errors: &mut Vec<String>) {
    for (i, o) in reps.iter().enumerate() {
        errors.extend(o.violations.iter().map(|v| format!("{label} rep {i}: {v}")));
        if o.digest != reps[0].digest {
            errors.push(format!(
                "{label} rep {i}: sim-stat digest {:016x} differs from rep 0's {:016x}",
                o.digest, reps[0].digest
            ));
        }
    }
}

/// Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
/// rises the first time a large block is freed; from then on large blocks
/// come from the heap and are cleared by hand. Set-ups after the first
/// repetition of `pod_pair_mux` and `device_io` then took 2–3× as long as
/// in a fresh process, by an amount that followed the previous run's
/// allocations. Pinned, every set-up and repetition allocates as a fresh
/// process does.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets a malloc parameter, and it runs before the
    // process has allocated anything it will free.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() {
    pin_mmap_threshold();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oasis-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if a.obs_counters {
        obs_counters(&a);
    } else if a.trace {
        traced(&a);
    } else {
        end_to_end(&a);
    }
}

fn end_to_end(a: &Args) {
    let start = Instant::now();
    let mut tracer = Tracer::off();
    let mut reps = vec![rep(a, E2E_THREADS, &mut tracer)];
    // Peak memory of one set-up plus run in a fresh process: later
    // repetitions add only allocator reuse noise.
    let peak_rss = peak_rss_mib();
    // Set-ups are timed between the repetitions, so they sample the same
    // stretch of time the runs do.
    let mut setups = Vec::new();
    loop {
        setups.extend((0..SETUPS_PER_REP).map(|_| timed_setup(a, &mut tracer)));
        if reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
        reps.push(rep(a, E2E_THREADS, &mut tracer));
    }
    while setups.len() < SETUP_SAMPLES {
        setups.push(timed_setup(a, &mut tracer));
    }
    let outs: Vec<&Outcome> = reps.iter().map(|r| &r.out).collect();
    let mut errors = Vec::new();
    check(&outs, &a.workload, &mut errors);
    let first = &reps[0].out;

    let setup_s = median(&setups);
    let ops_per_s = first.ops as f64 / quiet_run_s(&reps, &mut errors);
    let q = first.rtt_quantum_ns;
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "setup_s" => setup_s,
                "sim_ops_per_s" => ops_per_s,
                "peak_rss_mib" => peak_rss,
                "delivered_ratio" => 1.0 - first.failed as f64 / first.attempted.max(1) as f64,
                "rtt_p50_us" => percentile_quantized(&first.rtt_ns, 50.0, q) / 1e3,
                "rtt_p999_us" => percentile_quantized(&first.rtt_ns, 99.9, q) / 1e3,
                "io_kiops" => first.ops_per_sim_s / 1e3,
                "payload_gbps" => first.payload_gbps,
                "placed_ratio" => first.placed as f64 / first.place_requests.max(1) as f64,
                _ => unreachable!("END_TO_END names are matched above"),
            };
            (name.to_string(), v, unit)
        })
        .collect();

    println!(
        "== {} seed {} | {} reps in {:.1} s | threads {} ==",
        a.workload,
        a.seed,
        reps.len(),
        start.elapsed().as_secs_f64(),
        E2E_THREADS
    );
    for (n, v, u) in &metrics {
        let reference = first.references.iter().find(|(m, _)| m == n);
        let kind = match (n.as_str(), reference) {
            ("setup_s" | "sim_ops_per_s" | "peak_rss_mib", _) => "host-time",
            (_, Some((_, r))) => r,
            _ => "sim-time, unvalidated model",
        };
        println!("{n:>16} {v:>16.4} {u:<11} [{kind}]");
    }
    for note in &first.notes {
        println!("  {note}");
    }
    let runs: Vec<String> = reps.iter().map(|r| format!("{:.3}", r.run_s)).collect();
    println!("  run host s per rep: {}", runs.join(" "));
    let setups: Vec<String> = setups.iter().map(|s| format!("{:.4}", s)).collect();
    println!("  setup host s: {}", setups.join(" "));
    println!(
        "  rtt samples {} (p99.9 has {} beyond it); sim-stat digest {:016x}",
        first.rtt_ns.len(),
        first.rtt_ns.len() / 1000,
        first.digest
    );
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    print_result(errors.is_empty(), first, &metrics);
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

fn traced(a: &Args) {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::on();
    let mut off = Tracer::off();
    while traced.len() < 2 || start.elapsed().as_secs_f64() < a.seconds {
        plain.push(rep(a, E2E_THREADS, &mut off));
        tracer.clear();
        traced.push(rep(a, E2E_THREADS, &mut tracer));
    }
    // The 2-thread figure for the workload that shards across pods; its
    // simulated statistics must match the 1-thread run byte for byte.
    let two = (a.workload == "pod_pair_mux").then(|| rep(a, 2, &mut off));

    let mut outs: Vec<&Outcome> = plain.iter().chain(&traced).map(|r| &r.out).collect();
    outs.extend(two.as_ref().map(|r| &r.out));
    let mut errors = Vec::new();
    check(&outs, &a.workload, &mut errors);

    let untraced_s = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let shard_speedup_2t = two.as_ref().map_or(0.0, |r| untraced_s / r.run_s);
    let spans = tracer.stats();
    let last = &traced.last().expect("at least two traced reps").out;
    let host = layers::HostTimes {
        spans: &spans,
        untraced_s,
        traced_s,
        ops: last.ops,
        shard_speedup_2t,
    };
    let mut values = layers::derive(&last.snapshot, &last.layer, &host);
    // Filled from the `obs` build by run.py; 0 here.
    for (n, _) in layers::OBS_COUNTERS {
        values.entry(n.to_string()).or_insert(0.0);
    }

    let path =
        std::path::Path::new(".bench_out").join(format!("spans-{}-seed{}.csv", a.workload, a.seed));
    if let Err(e) = tracer.write_csv(&path) {
        errors.push(format!("writing {}: {e}", path.display()));
    }

    println!(
        "== {} seed {} traced | {} untraced + {} traced reps | spans of the last rep: {} ==",
        a.workload,
        a.seed,
        plain.len(),
        traced.len(),
        path.display()
    );
    println!(
        "  tracing overhead: {:.4} s traced vs {:.4} s untraced run ({:+.1}%)",
        traced_s,
        untraced_s,
        (traced_s / untraced_s - 1.0) * 100.0
    );
    if let Some(two) = &two {
        println!(
            "  shard threads: 1 thread {:.3} s, 2 threads {:.3} s (speedup {:.2}x, digests equal: {})",
            untraced_s,
            two.run_s,
            shard_speedup_2t,
            two.out.digest == plain[0].out.digest
        );
    }
    let catalog = layers::catalog();
    let metrics: Vec<(String, f64, &str)> = catalog
        .iter()
        .map(|(n, u)| (n.clone(), values.get(n).copied().unwrap_or(0.0), *u))
        .collect();
    for (n, v, u) in &metrics {
        println!("{n:>44} {v:>16.4} {u}");
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    print_result(errors.is_empty(), last, &metrics);
    if !errors.is_empty() {
        std::process::exit(1);
    }
}

fn obs_counters(a: &Args) {
    let r = rep(a, E2E_THREADS, &mut Tracer::off());
    let mut errors = Vec::new();
    check(&[&r.out], &a.workload, &mut errors);
    let values: BTreeMap<String, f64> = layers::obs_counters(&r.out.snapshot);
    let metrics: Vec<(String, f64, &str)> = layers::OBS_COUNTERS
        .iter()
        .map(|&(n, u)| (n.to_string(), values[n], u))
        .collect();
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    print_result(errors.is_empty(), &r.out, &metrics);
    if !errors.is_empty() {
        std::process::exit(1);
    }
}
