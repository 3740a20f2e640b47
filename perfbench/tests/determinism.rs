//! The sim-stat digest is a determinism contract: one seed always gives
//! one digest, and `pod_pair_mux` gives the same digest whether its two
//! pods run on one shard worker or two. Run in release mode
//! (`cargo test --release --manifest-path perfbench/Cargo.toml`); the
//! workloads are full-size.

use oasis_perfbench::tracer::Tracer;
use oasis_perfbench::{layers, Workload, END_TO_END, WORKLOADS};

fn digest(workload: &str, seed: u64, threads: usize) -> u64 {
    let mut tracer = Tracer::off();
    let out = Workload::setup(workload, seed, threads, &mut tracer)
        .expect("known workload")
        .run(&mut tracer);
    assert!(
        out.violations.is_empty(),
        "{workload} seed {seed}: {:?}",
        out.violations
    );
    out.digest
}

#[test]
fn digest_repeats_for_one_seed() {
    for w in WORKLOADS {
        assert_eq!(digest(w, 7, 1), digest(w, 7, 1), "{w}");
    }
}

#[test]
fn digest_depends_on_the_seed() {
    assert_ne!(digest("fleet_control", 7, 1), digest("fleet_control", 8, 1));
}

#[test]
fn pod_pair_mux_digest_is_identical_at_one_and_two_shard_threads() {
    assert_eq!(digest("pod_pair_mux", 7, 1), digest("pod_pair_mux", 7, 2));
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed = |name: &str, unit: &str| {
        text.contains(&format!(
            "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
        ))
    };
    let per_layer = layers::catalog();
    for (name, unit) in END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer.clone())
    {
        assert!(
            listed(&name, unit),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    for w in WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
    let names = text.matches("\"name\": ").count();
    assert_eq!(names, WORKLOADS.len() + END_TO_END.len() + per_layer.len());
}
