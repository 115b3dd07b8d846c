//! # bench — the experiment harness
//!
//! One binary per table and figure of the paper's evaluation (§4), plus
//! Criterion micro-benchmarks (`benches/`). Run e.g.:
//!
//! ```text
//! cargo run --release -p bench --bin table2
//! cargo run --release -p bench --bin fig3
//! ```
//!
//! Every experiment accepts an optional positional *scale* argument
//! (default 1): larger scales run longer campaigns and tighten the
//! statistics. Results are printed as paper-style text tables with the
//! paper's reference numbers alongside, and recorded in EXPERIMENTS.md.

use jvmsim::{Family, JvmSpec, Version};
use mopfuzzer::campaign::FoundBug;
use mopfuzzer::corpus::{self, Seed};
use mopfuzzer::{run_campaign, CampaignConfig, Variant};
use std::fmt::Write as _;

/// Telemetry wiring for the experiment binaries: every `bench` binary
/// brackets its run with [`metrics::start`]/[`metrics::finish`], so
/// setting `BENCH_METRICS_OUT=FILE` makes a tool-comparison run emit the
/// same JSONL-snapshot + Prometheus exports as `mopfuzzer --metrics-out`
/// — directly comparable telemetry across the CLI, the baselines, and
/// the benchmarks (one shared `jtelemetry` session per process).
pub mod metrics {
    use std::path::{Path, PathBuf};

    /// Installs a process-wide telemetry session when `BENCH_METRICS_OUT`
    /// names a file; returns that path. Without the variable this is a
    /// no-op and all telemetry calls stay disabled (zero overhead).
    pub fn start() -> Option<PathBuf> {
        let path = std::env::var_os("BENCH_METRICS_OUT")?;
        jtelemetry::install(jtelemetry::Session::new());
        Some(PathBuf::from(path))
    }

    /// Consumes the session and writes the final snapshot: one JSONL line
    /// appended to `out` plus a Prometheus text export at `out.prom`,
    /// matching the CLI's `--metrics-out` formats byte for byte.
    pub fn finish(out: Option<&Path>) {
        let Some(session) = jtelemetry::take() else {
            return;
        };
        let Some(out) = out else {
            return;
        };
        let snap = session.snapshot();
        let mut prom = out.as_os_str().to_owned();
        prom.push(".prom");
        let jsonl = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut f| {
                use std::io::Write as _;
                writeln!(f, "{}", jtelemetry::export::jsonl_line(&snap))
            });
        if let Err(e) = jsonl {
            eprintln!("warning: metrics write failed: {e}");
        }
        if let Err(e) = std::fs::write(&prom, jtelemetry::export::prometheus(&snap)) {
            eprintln!("warning: metrics write failed: {e}");
        }
        eprintln!(
            "metrics: {} (+ {})",
            out.display(),
            Path::new(&prom).display()
        );
    }
}

/// The two per-family differential pools. The paper runs its campaigns
/// against OpenJDK and OpenJ9 *separately* (§4.1); pooling both families
/// would let HotSpur crash bugs mask J9 miscompilations, because a crash
/// preempts the output comparison.
pub fn family_pools() -> (Vec<JvmSpec>, Vec<JvmSpec>) {
    let hotspur = Version::ALL.iter().map(|&v| JvmSpec::hotspur(v)).collect();
    let j9 = [Version::V8, Version::V11, Version::V17]
        .into_iter()
        .map(JvmSpec::j9)
        .collect();
    (hotspur, j9)
}

/// The merged outcome of the two per-family campaigns.
#[derive(Debug, Clone, Default)]
pub struct DualResult {
    /// Deduplicated bugs across both campaigns.
    pub bugs: Vec<FoundBug>,
    /// Total JVM executions.
    pub executions: u64,
}

/// Runs one campaign per family (paper §4.1's setup) and merges the
/// findings.
pub fn dual_family_campaign(seeds: &[Seed], rounds_per_family: usize) -> DualResult {
    let (hotspur, j9) = family_pools();
    let mut merged = DualResult::default();
    let mut seen = std::collections::HashSet::new();
    for (pool, salt) in [(hotspur, 1u64), (j9, 2u64)] {
        let config = CampaignConfig {
            iterations_per_seed: 50,
            variant: Variant::Full,
            rounds: rounds_per_family,
            pool,
            rng_seed: 2024 + salt,
            supervisor: Default::default(),
            fault: None,
            jobs: 1,
        };
        let result = run_campaign(seeds, &config);
        merged.executions += result.executions;
        for bug in result.bugs {
            if seen.insert(bug.id.clone()) {
                merged.bugs.push(bug);
            }
        }
    }
    merged
}

/// Count of merged bugs belonging to a family's population.
pub fn found_in_family(result: &DualResult, family: Family) -> usize {
    let library = jvmsim::bugs::library();
    result
        .bugs
        .iter()
        .filter(|b| {
            library
                .iter()
                .any(|lib| lib.id == b.id && lib.family == family)
        })
        .count()
}

/// Parses the scale factor from argv (default 1, clamped to 1..=100).
pub fn scale_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(1)
        .clamp(1, 100)
}

/// The experiment seed corpus: the built-in seeds plus generated ones.
pub fn experiment_seeds(extra: usize) -> Vec<Seed> {
    corpus::corpus(extra, 0xC0FFEE)
}

/// Renders a simple aligned text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let line = |out: &mut String, cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let _ = write!(s, "{:<width$}  ", cell, width = widths[i]);
        }
        let _ = writeln!(out, "{}", s.trim_end());
    };
    line(
        &mut out,
        &header.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// A crude ASCII sparkline for figure binaries.
pub fn sparkline(values: &[f64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::EPSILON, f64::max);
    values
        .iter()
        .map(|v| {
            let idx = ((v / max) * (GLYPHS.len() - 1) as f64).round() as usize;
            GLYPHS[idx.min(GLYPHS.len() - 1)]
        })
        .collect()
}

/// Formats a boxplot five-number summary.
pub fn format_box(label: &str, values: &[f64]) -> Vec<String> {
    let [min, q1, med, q3, max] = mopfuzzer::stats::five_numbers(values);
    vec![
        label.to_string(),
        format!("{:.1}", min),
        format!("{:.1}", q1),
        format!("{:.1}", med),
        format!("{:.1}", q3),
        format!("{:.1}", max),
        format!("{}", values.len()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            "T",
            &["a", "bb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long"));
    }

    #[test]
    fn sparkline_monotone_heights() {
        let s = sparkline(&[0.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.chars().count(), 4);
    }

    #[test]
    fn experiment_seeds_extend() {
        assert_eq!(experiment_seeds(2).len(), 12);
    }
}
