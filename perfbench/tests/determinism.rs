//! Determinism self-test: two runs with one seed give bit-identical
//! simulated metrics and serve, planner and spill counts; a second seed
//! also passes the correctness gate. Each run is one pass (or one ladder
//! pass) with no time budget. Run with `cargo test --release`: the
//! workloads are the real ones, so a debug build takes minutes.

use perfbench::cli::{Args, Workload};
use perfbench::stats::Metric;
use std::time::Duration;

fn run(workload: Workload, seed: u64, trace: bool) -> Vec<Metric> {
    let args = Args {
        workload,
        seed,
        seconds: Duration::ZERO,
        trace,
        min_samples: 1,
    };
    perfbench::run(&args)
        .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()))
        .metrics
}

/// Metrics read from the host clock, which no seed fixes.
fn host_clock(name: &str) -> bool {
    const HOST: [&str; 13] = [
        "setup_s",
        "peak_rss_mb",
        "queries_per_s",
        "query_ms_",
        "tpch.generate_s",
        "sql.",
        "core.compile_ms",
        "core.exec_ms",
        "serve.replay_s",
        "cpu_ref.exec_ms",
        "bench.",
        "self_ms.",
        "rmm.pool_hwm_mb",
    ];
    HOST.iter().any(|h| name.starts_with(h))
}

fn simulated(metrics: Vec<Metric>) -> Vec<(&'static str, u64)> {
    metrics
        .into_iter()
        .filter(|m| !host_clock(m.name))
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn one_seed_repeats_bit_for_bit() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let first = run(w, 11, trace);
            if w == Workload::ServeMix && trace {
                let get = |name: &str| {
                    first
                        .iter()
                        .find(|m| m.name == name)
                        .expect("metric listed")
                        .value
                };
                assert!(get("spill.mb") > 0.0, "the budgeted tenant spills");
                assert!(
                    get("planner.hit_ratio") > 0.0,
                    "repeated SQL hits the plan cache"
                );
                assert!(get("planner.replans") > 0.0, "feedback re-plans");
            }
            let a = simulated(first);
            let b = simulated(run(w, 11, trace));
            assert!(!a.is_empty());
            assert_eq!(a, b, "{} trace {trace}", w.name());
        }
    }
}

#[test]
fn second_seed_passes_the_correctness_gate() {
    for w in Workload::ALL {
        run(w, 12, false);
    }
}
