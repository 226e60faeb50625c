//! Sample statistics, the metric tables every run reports, and the
//! result line the benchmark prints last.

use std::fmt::Write as _;

/// Quantile of an ascending-sorted sample, interpolating linearly
/// between order statistics (type 7 of Hyndman–Fan). 0 for no samples.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of `BENCHMARK.json`, reported by untraced
/// runs, as (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of `BENCHMARK.json`, reported by traced runs,
/// as (name, unit). A workload whose queries never reach a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("garlic.sql.parse_us_p50", "us"),
    ("garlic.plan.us_p50", "us"),
    ("garlic.plan.share.ta", "share"),
    ("garlic.plan.share.fa", "share"),
    ("garlic.plan.share.ca", "share"),
    ("garlic.plan.share.crisp_filter", "share"),
    ("garlic.plan.share.max_merge", "share"),
    ("garlic.plan.share.full_scan", "share"),
    ("garlic.atom.ms_p50", "ms"),
    ("garlic.atom.per_query", "count"),
    ("garlic.atom.repeat_share", "share"),
    ("garlic.atom.share", "share"),
    ("garlic.idmap.ms_p50", "ms"),
    ("media.color.ns_per_object", "ns"),
    ("media.texture.ns_per_object", "ns"),
    ("media.shape.ns_per_object", "ns"),
    ("planner.us_p50", "us"),
    ("planner.share.fa", "share"),
    ("planner.share.ta", "share"),
    ("planner.share.nra", "share"),
    ("planner.share.ca", "share"),
    ("planner.cost_qerror_p50", "ratio"),
    ("planner.cost_qerror_max", "ratio"),
    ("planner.wall_regret_p50", "ratio"),
    ("planner.wall_regret_max", "ratio"),
    ("engine.overhead_us_p50", "us"),
    ("engine.grade_cache_hit_rate", "share"),
    ("engine.worker_spawns_per_query", "count"),
    ("algo.self_ms_p50", "ms"),
    ("algo.ns_per_access", "ns"),
    ("algo.depth_p50", "count"),
    ("algo.sorted_per_query", "count"),
    ("algo.random_per_query", "count"),
    ("source.sorted_ns", "ns"),
    ("source.random_ns", "ns"),
    ("store.sorted_ns", "ns"),
    ("store.random_ns", "ns"),
    ("store.page_reads_per_query", "count"),
    ("store.pool_hit_rate", "share"),
    ("store.evictions_per_query", "count"),
    ("store.pages_skipped_per_query", "count"),
    ("store.readahead_loads_per_query", "count"),
    ("store.us_per_page_read", "us"),
    ("store.build_ms_p50", "ms"),
    ("store.open_ms_p50", "ms"),
    ("store.bytes_written_per_rebuild", "B"),
    ("rebuild_p50_ms", "ms"),
    ("space_amp", "ratio"),
    ("error_rate", "share"),
    ("trace.overhead_share", "share"),
];

/// Metric values gathered by one run, in the order they were set.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets (or overwrites) a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of a metric, or 0 when the run never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// JSON rendering of a finite number with all its digits; anything
/// non-finite (never produced by a correct run) renders as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `table`, each with its unit.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    table: &[(&str, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        failed == 0,
        attempted.max(1),
        failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(metrics.get(name))
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut m = Metrics::default();
        m.set("query_p50_ms", 1.25);
        let line = result_line(3, 1, &m, &END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
        assert!(line.contains("\"query_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
