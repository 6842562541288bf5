//! Shared plumbing for the `divscrape` benchmark harness and the
//! table-reproduction binaries.
//!
//! Binaries (run with `cargo run --release -p divscrape-bench --bin <name>`):
//!
//! | Binary | Experiment | Regenerates |
//! |---|---|---|
//! | `repro_tables` | E1–E4 | Paper Tables 1, 2, 3, 4 + shape checks |
//! | `exp_adjudication` | E5 | Labelled 1oo2 / 2oo2 / weighted analysis |
//! | `exp_topology` | E6 | Parallel vs serial deployment trade-offs |
//! | `exp_roc` | E7 | ROC/AUC per detector and baseline |
//! | `exp_ablation` | E8 | Per-signal / per-rule contribution |
//!
//! All binaries accept `--scale tiny|small|medium|paper` (default differs
//! per binary) and `--seed <u64>` (default 2018).
//!
//! The criterion groups under `benches/` take their scale from
//! [`bench_scale`] instead (`docs/CI.md` lists the groups and why each
//! one is not a `benchmark/` harness metric).

#![forbid(unsafe_code)]

use divscrape_traffic::ScenarioConfig;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// The scenario to run.
    pub scenario: ScenarioConfig,
    /// Human-readable scale name.
    pub scale: String,
    /// The seed in use.
    pub seed: u64,
}

/// Parses `--scale` / `--seed` from `std::env::args`.
///
/// # Errors
///
/// Returns a usage string on unknown flags or malformed values.
pub fn parse_options(default_scale: &str) -> Result<ExpOptions, String> {
    let mut scale = default_scale.to_owned();
    let mut seed = 2018u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args.next().ok_or("--scale needs a value")?;
            }
            "--seed" => {
                seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--help" | "-h" => {
                return Err(format!(
                    "usage: [--scale tiny|small|medium|paper] [--seed N]   (default scale: {default_scale}, seed: 2018)"
                ));
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    let scenario = scenario_for(&scale, seed)?;
    Ok(ExpOptions {
        scenario,
        scale,
        seed,
    })
}

/// Maps a scale name to its scenario preset.
///
/// # Errors
///
/// Returns an error message on an unknown scale name.
pub fn scenario_for(scale: &str, seed: u64) -> Result<ScenarioConfig, String> {
    match scale {
        "tiny" => Ok(ScenarioConfig::tiny(seed)),
        "small" => Ok(ScenarioConfig::small(seed)),
        "medium" => Ok(ScenarioConfig::medium(seed)),
        "paper" => Ok(ScenarioConfig::paper_scale(seed)),
        other => Err(format!(
            "unknown scale `{other}` (expected tiny|small|medium|paper)"
        )),
    }
}

/// The scale name every criterion bench under `benches/` runs at: the
/// `DIVSCRAPE_BENCH_SCALE` environment variable, `small` when unset.
/// Resolve it with [`scenario_for`] (whose `target_requests` is the
/// request count at that scale).
pub fn bench_scale() -> String {
    std::env::var("DIVSCRAPE_BENCH_SCALE").unwrap_or_else(|_| "small".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_names_resolve() {
        assert_eq!(scenario_for("tiny", 1).unwrap().target_requests, 1_200);
        assert_eq!(scenario_for("small", 1).unwrap().target_requests, 12_000);
        assert_eq!(scenario_for("medium", 1).unwrap().target_requests, 120_000);
        assert_eq!(scenario_for("paper", 1).unwrap().target_requests, 1_469_744);
        assert!(scenario_for("galactic", 1).is_err());
        // The criterion benches resolve their knob through the same
        // table, so every name above — `paper` included — works there.
        assert!(scenario_for(&bench_scale(), 1).is_ok());
    }
}
