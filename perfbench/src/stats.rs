//! Percentiles, the metric record, the result line, and peak memory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile of a non-empty sample, `q` in `[0, 1]` (the
/// rule `sirius_serve::percentile` uses). With `n >= 100` the p90 has at
/// least ten samples beyond it.
pub fn percentile(sample: &[f64], q: f64) -> f64 {
    assert!(!sample.is_empty(), "percentile of an empty sample");
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[rank]
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(sample: &[f64]) -> f64 {
    assert!(!sample.is_empty(), "median of an empty sample");
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bytes to megabytes (10^6).
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, with all its digits.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value summarizes (0: not measured on this workload).
    pub samples: usize,
}

/// The end-to-end metrics, with their units, in `BENCHMARK.json` order.
/// Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ms", "ms"),
    ("serve_p50_sim_ms", "ms"),
    ("serve_p95_sim_ms", "ms"),
    ("serve_max_rate_qps", "q/s"),
    ("completed_share", "ratio"),
];

/// The per-layer metrics, named after the crate that produces them, in
/// `BENCHMARK.json` order. A workload that does not exercise a layer
/// reports 0 for it. The first three are the workload's host query
/// timings: they sit here, with no bound, because the shared host's speed
/// drifts by more than any bound allowed (see the README).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("queries_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("tpch.generate_s", "s"),
    ("tpch.input_mb", "MB"),
    ("sql.parse_ms", "ms"),
    ("sql.bind_ms", "ms"),
    ("sql.optimize_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("plan.peak_rows.q05", "rows"),
    ("plan.peak_rows.q07", "rows"),
    ("plan.peak_rows.q09", "rows"),
    ("plan.peak_rows.q18", "rows"),
    ("plan.peak_rows.q21", "rows"),
    ("plan.rows_per_result", "ratio"),
    ("core.exec_ms", "ms"),
    ("core.exec_ms.q01", "ms"),
    ("core.exec_ms.q05", "ms"),
    ("core.exec_ms.q06", "ms"),
    ("core.exec_ms.q07", "ms"),
    ("core.exec_ms.q09", "ms"),
    ("core.exec_ms.q12", "ms"),
    ("core.exec_ms.q14", "ms"),
    ("core.exec_ms.q18", "ms"),
    ("core.exec_ms.q19", "ms"),
    ("core.exec_ms.q21", "ms"),
    ("core.steps", "count"),
    ("core.morsels", "count"),
    ("core.tasks", "count"),
    ("core.worker_util", "ratio"),
    ("hw.sim_ms.scan", "ms"),
    ("hw.sim_ms.filter", "ms"),
    ("hw.sim_ms.project", "ms"),
    ("hw.sim_ms.join", "ms"),
    ("hw.sim_ms.groupby", "ms"),
    ("hw.sim_ms.aggregate", "ms"),
    ("hw.sim_ms.orderby", "ms"),
    ("hw.sim_ms.exchange", "ms"),
    ("hw.sim_ms.other", "ms"),
    ("hw.kernels", "count"),
    ("hw.kernel_mb", "MB"),
    ("rmm.pool_hwm_mb", "MB"),
    ("spill.mb", "MB"),
    ("spill.partitions", "count"),
    ("broker.denied_ratio", "ratio"),
    ("serve.replay_s", "s"),
    ("serve.queue_wait_p95_sim_ms", "ms"),
    ("serve.waves", "count"),
    ("serve.peak_in_flight", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.cancelled", "count"),
    ("planner.hit_ratio", "ratio"),
    ("planner.planning_phases", "count"),
    ("planner.replans", "count"),
    ("cpu_ref.exec_ms.q01", "ms"),
    ("cpu_ref.exec_ms.q06", "ms"),
    ("cpu_ref.exec_ms.q12", "ms"),
    ("cpu_ref.exec_ms.q14", "ms"),
    ("cpu_ref.exec_ms.q19", "ms"),
    ("cpu_ref.sim_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.verify_s", "s"),
    ("self_ms.query", "ms"),
    ("self_ms.sql.parse", "ms"),
    ("self_ms.sql.bind", "ms"),
    ("self_ms.sql.optimize", "ms"),
    ("self_ms.core.compile", "ms"),
    ("self_ms.core.exec", "ms"),
    ("self_ms.core.step", "ms"),
    ("self_ms.serve.replay", "ms"),
];

/// Values being collected against one of the fixed metric lists.
pub struct Sheet {
    catalog: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Sheet {
    /// An empty sheet for `catalog` ([`END_TO_END`] or [`PER_LAYER`]).
    pub fn new(catalog: &'static [(&'static str, &'static str)]) -> Self {
        Sheet {
            catalog,
            values: BTreeMap::new(),
        }
    }

    /// Set `name` to `value`, summarizing `samples` samples. Panics on a
    /// name the catalog does not list: that is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let (key, _) = self
            .catalog
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.values.insert(key, (value, samples));
    }

    /// Every catalog metric in catalog order; unset ones read 0 with no
    /// samples when `zero_missing`, and are an error otherwise.
    pub fn metrics(&self, zero_missing: bool) -> Result<Vec<Metric>, String> {
        self.catalog
            .iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(&(value, samples)) => Ok(Metric {
                    name,
                    value,
                    unit,
                    samples,
                }),
                None if zero_missing => Ok(Metric {
                    name,
                    value: 0.0,
                    unit,
                    samples: 0,
                }),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }
}

/// Set the host query timings: operations per host second, and the p50
/// and p90 of `per_op_ms`. Returns them as a printable line.
pub fn set_host_timings(sheet: &mut Sheet, per_s: f64, per_op_ms: &[f64]) -> String {
    let n = per_op_ms.len();
    let (p50, p90) = (percentile(per_op_ms, 0.5), percentile(per_op_ms, 0.9));
    sheet.set("queries_per_s", per_s, n);
    sheet.set("query_ms_p50", p50, n);
    sheet.set("query_ms_p90", p90, n);
    format!("host: {per_s:.4} queries/s, p50 {p50:.3} ms, p90 {p90:.3} ms (n={n})")
}

/// Render the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Refuses non-finite
/// values, which JSON cannot carry.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    Ok(out)
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(mb(kib * 1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_leaves_ten_beyond_p90_at_one_hundred() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&sample, 0.9);
        assert_eq!(p90, 90.0);
        assert_eq!(sample.iter().filter(|&&v| v > p90).count(), 10);
        assert_eq!(median(&sample), 50.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let m = |value: f64| Metric {
            name: "setup_s",
            value,
            unit: "s",
            samples: 3,
        };
        let line = result_line(3, 0, &[m(0.25)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_line(1, 0, &[m(f64::NAN)]).is_err());
    }
}
