//! Shared plumbing for the VeriDB benchmark harness.
//!
//! Every figure of the paper's evaluation has one bench target in
//! `benches/`; each prints an aligned table with the measured series next
//! to the paper's reported series (digitized from the figures, so
//! approximate). The multi-client and durability benches also write a
//! tracked `BENCH_<name>.json` summary at the repository root.
//!
//! Scale control: set `VERIDB_BENCH_SCALE=paper` for the paper's full
//! workload sizes (minutes), or leave unset for laptop scale (seconds).
//! The chosen scale is printed with each table.

use std::time::Instant;
use veridb::{Row, Value, VeriDb};
use veridb_workloads::tpch::TpchConfig;

/// Workload scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-figure laptop scale (default).
    Small,
    /// The paper's workload sizes.
    Paper,
}

/// Read the scale from `VERIDB_BENCH_SCALE`.
pub fn scale_from_env() -> Scale {
    match std::env::var("VERIDB_BENCH_SCALE").as_deref() {
        Ok("paper") | Ok("PAPER") | Ok("full") => Scale::Paper,
        _ => Scale::Small,
    }
}

/// TPC-H sizes of the single-client figures (fig12_tpch, fig12_scaling):
/// 60k lineitem / 2k part rows, or 600k / 20k at paper scale.
pub fn tpch_config(scale: Scale) -> TpchConfig {
    match scale {
        Scale::Paper => TpchConfig {
            lineitem_rows: 600_000,
            part_rows: 20_000,
            ..TpchConfig::default()
        },
        Scale::Small => TpchConfig::default(),
    }
}

/// TPC-H sizes of the multi-client figures (fig_mc, fig_net): 12k
/// lineitem / 400 part rows, small enough for 256 concurrent clients in
/// under a minute, or 120k / 4k at paper scale.
pub fn tpch_multi_client_config(scale: Scale) -> TpchConfig {
    match scale {
        Scale::Paper => TpchConfig {
            lineitem_rows: 120_000,
            part_rows: 4_000,
            ..TpchConfig::default()
        },
        Scale::Small => TpchConfig {
            lineitem_rows: 12_000,
            part_rows: 400,
            ..TpchConfig::default()
        },
    }
}

/// Result equivalence across worker counts, DOPs and runs: identical
/// shape and order; float cells compare with a relative epsilon because
/// per-morsel partial sums associate differently than one serial
/// left-fold.
pub fn rows_equivalent(a: &[Row], b: &[Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().zip(b).all(|(ra, rb)| {
        ra.values().len() == rb.values().len()
            && ra
                .values()
                .iter()
                .zip(rb.values())
                .all(|(x, y)| match (x, y) {
                    (Value::Float(fx), Value::Float(fy)) => {
                        let scale = fx.abs().max(fy.abs()).max(1.0);
                        (fx - fy).abs() <= 1e-9 * scale
                    }
                    _ => x == y,
                })
    })
}

/// The value of the registry row `name` (0 when absent).
pub fn counter(db: &VeriDb, name: &str) -> u64 {
    db.metrics()
        .counters()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap_or(0)
}

/// Time `f` once, in seconds.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Mean microseconds per call over individually timed invocations.
pub fn mean_us(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64 * 1e6
}

/// An aligned text table with a title and a footnote.
pub struct FigureTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl FigureTable {
    /// Start a table.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        FigureTable {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a data row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Add a footnote line.
    pub fn note(&mut self, s: &str) {
        self.notes.push(s.to_owned());
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("\n=== {} ===", self.title);
        for (i, h) in self.headers.iter().enumerate() {
            print!("{:<w$}  ", h, w = widths[i]);
        }
        println!();
        println!("{}", "-".repeat(line));
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                print!("{:<w$}  ", c, w = widths[i]);
            }
            println!();
        }
        for n in &self.notes {
            println!("  * {n}");
        }
    }
}

/// One operation's latency/throughput summary for `BENCH_*.json`.
#[derive(Debug, Clone)]
pub struct OpSummary {
    /// Operation label, e.g. `"Q1/clients=16"`.
    pub op: String,
    /// Median latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// Completed operations per second.
    pub throughput_per_s: f64,
    /// Throughput relative to the same op's 1-worker run, for scaling
    /// sweeps (`None` for ops without a 1-worker baseline).
    pub speedup_vs_1w: Option<f64>,
}

/// Percentile (0.0..=1.0) of a sample set, by nearest-rank on a sorted
/// copy. Returns 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Build an [`OpSummary`] from per-operation latency samples in seconds.
pub fn summarize(op: &str, latencies_s: &[f64], wall_s: f64, ops: usize) -> OpSummary {
    OpSummary {
        op: op.to_owned(),
        p50_us: percentile(latencies_s, 0.50) * 1e6,
        p95_us: percentile(latencies_s, 0.95) * 1e6,
        throughput_per_s: if wall_s > 0.0 {
            ops as f64 / wall_s
        } else {
            0.0
        },
        speedup_vs_1w: None,
    }
}

/// Write a machine-readable bench summary to `BENCH_<name>.json` at the
/// repository root, so the perf trajectory is tracked across PRs.
pub fn write_bench_summary(name: &str, ops: &[OpSummary]) {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"));
    let _ = std::fs::write(&path, summary_json(ops));
    println!("  (summary written to {})", path.display());
}

/// The `BENCH_*.json` text: a pretty-printed array of flat objects with
/// keys in sorted order.
fn summary_json(ops: &[OpSummary]) -> String {
    // `{:?}` keeps a float a float (`1.0`, not `1`); JSON has no NaN or
    // infinity, so those become null.
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x:?}")
        } else {
            "null".to_owned()
        }
    };
    let rows: Vec<String> = ops
        .iter()
        .map(|o| {
            let mut fields = vec![
                format!("\"op\": {:?}", o.op),
                format!("\"p50_us\": {}", num(o.p50_us)),
                format!("\"p95_us\": {}", num(o.p95_us)),
            ];
            if let Some(s) = o.speedup_vs_1w {
                fields.push(format!("\"speedup_vs_1w\": {}", num(s)));
            }
            fields.push(format!("\"throughput_per_s\": {}", num(o.throughput_per_s)));
            format!("  {{\n    {}\n  }}", fields.join(",\n    "))
        })
        .collect();
    if rows.is_empty() {
        "[]\n".to_owned()
    } else {
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_does_not_panic() {
        let mut t = FigureTable::new("Test", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("note");
        t.print();
    }

    #[test]
    fn mean_us_math() {
        assert_eq!(mean_us(&[]), 0.0);
        assert!((mean_us(&[1e-6, 3e-6]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        let s = [5.0, 1.0, 3.0, 2.0, 4.0]; // unsorted on purpose
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
    }

    #[test]
    fn summary_json_matches_the_tracked_format() {
        let mut a = summarize("Q1/clients=1", &[0.001], 1.0, 10);
        a.speedup_vs_1w = Some(1.0);
        let b = OpSummary {
            op: "w".into(),
            p50_us: 0.5,
            p95_us: f64::NAN,
            throughput_per_s: f64::INFINITY,
            speedup_vs_1w: None,
        };
        assert_eq!(
            summary_json(&[a, b]),
            "[\n  {\n    \"op\": \"Q1/clients=1\",\n    \"p50_us\": 1000.0,\n    \
             \"p95_us\": 1000.0,\n    \"speedup_vs_1w\": 1.0,\n    \
             \"throughput_per_s\": 10.0\n  },\n  {\n    \"op\": \"w\",\n    \
             \"p50_us\": 0.5,\n    \"p95_us\": null,\n    \"throughput_per_s\": null\n  }\n]\n"
        );
        assert_eq!(summary_json(&[]), "[]\n");
    }

    #[test]
    fn summarize_computes_throughput() {
        let s = summarize("op", &[0.001, 0.002, 0.003], 2.0, 100);
        assert_eq!(s.op, "op");
        assert!((s.p50_us - 2000.0).abs() < 1e-6);
        assert!((s.throughput_per_s - 50.0).abs() < 1e-9);
        assert!(
            s.speedup_vs_1w.is_none(),
            "no baseline unless a sweep sets one"
        );
    }
}
