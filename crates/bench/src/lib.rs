//! # charon-bench — the table/figure regeneration harness
//!
//! One `harness = false` bench target per table and figure of the paper's
//! evaluation (§5); `cargo bench -p charon-bench` regenerates all of them.
//! This library holds the shared experiment plumbing: platform
//! construction, run caching, geometric means, and fixed-width table
//! printing.

use charon_workloads::parmatrix::system_by_label;
use charon_workloads::{run_workload, RunOptions, RunResult, WorkloadSpec};

/// The four platforms of Fig. 12, in presentation order.
pub const PLATFORMS: [&str; 4] = ["DDR4", "HMC", "Charon", "Ideal"];

/// Runs one workload on one platform with default options (or the given
/// overrides), panicking on OOM — benches are sized never to OOM.
///
/// # Panics
///
/// Panics on an unknown platform label or an out-of-memory run.
pub fn run(spec: &WorkloadSpec, label: &str, opts: &RunOptions) -> RunResult {
    let sys = system_by_label(label).unwrap_or_else(|| panic!("unknown platform {label}"));
    run_workload(spec, sys, opts).unwrap_or_else(|e| panic!("{} on {label}: {e}", spec.short))
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints one fixed-width row: a label column then numeric cells.
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<16}");
    for c in cells {
        print!("{c:>14}");
    }
    println!();
}

/// Prints a rule and a figure/table banner.
pub fn banner(title: &str, caption: &str) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!("{caption}");
    println!("{}", "-".repeat(78));
}

/// Formats a ratio cell like "3.29x".
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a percentage cell.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn platform_labels_resolve() {
        for p in PLATFORMS {
            assert_eq!(system_by_label(p).map(|s| s.label()), Some(p));
        }
    }

    #[test]
    #[should_panic(expected = "unknown platform PIM-9000")]
    fn unknown_platform_panics() {
        run(&charon_workloads::spec::by_short("BS").unwrap(), "PIM-9000", &RunOptions::default());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(3.287), "3.29x");
        assert_eq!(pct(0.607), "60.7%");
    }
}
