//! One harness, four workloads, a per-layer budget — see `README.md`.
//!
//! ```text
//! divscrape-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!                     [--quick] [--print-golden]
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line
//! of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 0 when the run was correct, 2 when the
//! program's outputs did not match the reference, 1 on a usage or
//! harness error.

mod alloc;
mod endtoend;
mod golden;
mod layers;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use endtoend::{AlertSummary, ClosedLoop, Paced, NS_PER_CPU_TICK};
use golden::Golden;
use metrics::{ratio, Measured, END_TO_END, PER_LAYER};
use report::RunResult;
use workloads::{Workload, DEFAULT_SEED, PACED_RATE_PER_S, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage: divscrape-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--quick] [--print-golden]
  --workload      spine2_paper | ensemble5_mixed | triage_benign | service_durable (default: all four)
  --seed          workload seed (default 2018, the seed the goldens were recorded for)
  --seconds       measured time per workload: closed loop + paced phase (default 25)
  --trace 1       per-layer metrics and benchmark/out/trace-<workload>.json instead of the end-to-end metrics
  --quick         a tenth of the log and ~2 s per workload: a smoke run, not comparable to gated runs
  --print-golden  print the workload's golden record for this seed and exit";

/// Seconds measured per workload unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 25.0;
const QUICK_SECONDS: f64 = 2.0;

/// How much log a run generates, and how often it sets up.
struct Sizes {
    /// Lines generated; the paced phase replays all of them.
    total: usize,
    /// Leading lines the closed-loop passes replay.
    closed: usize,
    /// Timed set-ups per run; `setup_s` is their median.
    setups: usize,
}

const FULL: Sizes = Sizes {
    total: 240_000,
    closed: 120_000,
    setups: 3,
};

const QUICK: Sizes = Sizes {
    total: 24_000,
    closed: 12_000,
    setups: 1,
};

/// Share of a traced run's `--seconds` spent in its closed loop; the
/// layer passes take the rest.
const TRACED_CLOSED_LOOP_SHARE: f64 = 0.15;

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    print_golden: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        quick: false,
        print_golden: false,
    };
    let mut args = args;
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let workload =
                    Workload::by_name(&name).ok_or(format!("unknown workload `{name}`"))?;
                options.workloads = vec![workload];
            }
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds must be within 1..=600, not {seconds}"));
                }
                options.seconds = seconds;
            }
            "--trace" => {
                options.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--quick" => options.quick = true,
            "--print-golden" => options.print_golden = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if options.seconds == 0.0 {
        options.seconds = if options.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(options)
}

/// `benchmark/out` of the checkout the harness runs in: under the
/// working directory when that is the checkout root (how the driver and
/// `check_repeat.sh` run it), else beside the manifest it was built from.
fn out_dir() -> PathBuf {
    let from_root = Path::new("benchmark");
    if from_root.join("Cargo.toml").is_file() {
        from_root.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// What every run does first: the lines, and what the reference routes
/// say the program must make of them.
struct Prepared {
    lines: Vec<String>,
    closed: AlertSummary,
    paced: AlertSummary,
    /// `false` if the checked-in golden applies and disagrees.
    golden_holds: bool,
    notes: Vec<String>,
}

fn prepare(
    workload: &'static Workload,
    options: &Options,
    sizes: &Sizes,
    lines: Vec<String>,
) -> Result<Prepared, String> {
    let reference = endtoend::reference_alerts(workload, &lines)?;
    let closed = AlertSummary::of(&reference, sizes.closed);
    let paced = AlertSummary::of(&reference, lines.len());
    let mut notes = vec![
        format!("why: {}", workload.why),
        format!(
            "reference route {:?}: {} alerts in the closed-loop prefix, {} in the whole log",
            workload.reference, closed.alerts, paced.alerts
        ),
    ];
    let mut golden_holds = true;
    if options.seed == DEFAULT_SEED && !options.quick {
        let golden = Golden::load(workload.name)?;
        if golden.input_digest != golden::input_digest(&lines) {
            notes.push(
                "golden not applied: the generated lines differ from the recorded input".into(),
            );
        } else {
            golden_holds = golden.closed == closed && golden.paced == paced;
            notes.push(format!(
                "golden {}",
                if golden_holds {
                    "holds"
                } else {
                    "BROKEN: alerts differ from workloads/*.golden"
                }
            ));
        }
    }
    Ok(Prepared {
        lines,
        closed,
        paced,
        golden_holds,
        notes,
    })
}

/// The closed-loop window: `--seconds` less the paced phase's length.
fn closed_loop_window(seconds: f64, sizes: &Sizes) -> Duration {
    let paced = sizes.total as f64 / PACED_RATE_PER_S as f64;
    Duration::from_secs_f64((seconds - paced).max(1.0))
}

/// Attempted/failed over both measured phases; on any mismatch every
/// attempted operation counts as failed.
fn verdict(prepared: &Prepared, closed: &ClosedLoop, paced: &Paced) -> (bool, u64, u64) {
    let attempted = closed.offered + paced.pass.offered;
    let failed = closed.failed + paced.pass.failed;
    let matched =
        closed.mismatches == 0 && paced.pass.alerts == prepared.paced && prepared.golden_holds;
    let correct = matched && failed == 0;
    (correct, attempted, if matched { failed } else { attempted })
}

fn latency_note(paced: &Paced) -> String {
    format!(
        "alert latency p50 {:.2} ms / p99 {:.2} ms over {} alerts delivered before the final drain; \
highest supported percentile: {}; generator late p99 {:.3} ms, max {:.3} ms",
        paced.p50_ms,
        paced.p99_ms,
        paced.samples,
        paced
            .supported_percentile
            .map_or("none".to_owned(), |p| format!("p{p}")),
        paced.late_p99_ms,
        paced.late_max_ms,
    )
}

fn run_end_to_end(
    workload: &'static Workload,
    options: &Options,
    sizes: &Sizes,
    scratch: &Path,
) -> Result<RunResult, String> {
    // Set-up: generate, render, build, one untimed warm-up pass.
    let mut setup_s = Vec::with_capacity(sizes.setups);
    let mut lines = Vec::new();
    for round in 0..sizes.setups {
        let started = Instant::now();
        lines = workload.lines(options.seed, sizes.total)?;
        endtoend::warm_up(
            workload,
            &lines[..sizes.closed],
            &scratch.join(format!("setup-{round}")),
        )?;
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut prepared = prepare(workload, options, sizes, lines)?;

    let mut closed = endtoend::closed_loop(
        workload,
        &prepared.lines[..sizes.closed],
        &prepared.closed,
        closed_loop_window(options.seconds, sizes),
        3,
        &scratch.join("closed"),
    )?;
    let paced = endtoend::paced_phase(workload, &prepared.lines, &scratch.join("paced"))?;

    let mut measured = Measured::default();
    measured.set("setup_s", stats::median(&mut setup_s));
    measured.set(
        "speed_vs_scan",
        stats::upper_quartile(&mut closed.speed_vs_scan),
    );
    measured.set(
        "allocs_per_entry",
        ratio(closed.allocs as f64, closed.offered as f64),
    );
    measured.set(
        "peak_heap_mib",
        paced.peak_heap_bytes as f64 / (1024.0 * 1024.0),
    );
    measured.set("alert_latency_p99_ms", paced.p99_ms);

    let (correct, attempted, failed) = verdict(&prepared, &closed, &paced);
    // The ratios are sorted now: show how far the passes of this run spread.
    let ratios = &mut closed.speed_vs_scan;
    let (slowest, fastest) = (ratios[0], ratios[ratios.len() - 1]);
    prepared.notes.push(format!(
        "{} (yardstick, pass, yardstick) triples, per-pass ratio min {slowest:.4} / median {:.4} / max {fastest:.4}; \
raw {:.0} entries/s (not gated)",
        ratios.len(),
        stats::median(ratios),
        ratio(1e9, stats::median(&mut closed.pass_ns_per_entry)),
    ));
    prepared.notes.push(latency_note(&paced));
    Ok(RunResult {
        workload: workload.name,
        correct,
        attempted,
        failed,
        metrics: measured.in_order(&END_TO_END)?,
        notes: prepared.notes,
    })
}

fn run_traced(
    workload: &'static Workload,
    options: &Options,
    sizes: &Sizes,
    scratch: &Path,
    out: &Path,
) -> Result<RunResult, String> {
    let lines = workload.lines(options.seed, sizes.total)?;
    endtoend::warm_up(workload, &lines[..sizes.closed], &scratch.join("setup"))?;
    let mut prepared = prepare(workload, options, sizes, lines)?;
    let closed_lines = &prepared.lines[..sizes.closed];

    // End-to-end phases first, tracing off: the harness.* numbers and
    // the same correctness checks as a gated run.
    let mut closed = endtoend::closed_loop(
        workload,
        closed_lines,
        &prepared.closed,
        Duration::from_secs_f64(options.seconds * TRACED_CLOSED_LOOP_SHARE),
        3,
        &scratch.join("closed"),
    )?;
    let paced = endtoend::paced_phase(workload, &prepared.lines, &scratch.join("paced"))?;

    let mut measured = Measured::default();
    let mut tracer = trace::Tracer::with_capacity(16 * 1024);
    layers::measure(
        workload,
        closed_lines,
        &mut tracer,
        &scratch.join("layers"),
        &mut measured,
    )?;

    let pass_ns = stats::median(&mut closed.pass_ns_per_entry);
    measured.set("pipeline.engine.flush_interval_ms", paced.flush_interval_ms);
    measured.set(
        "harness.yardstick.ns_per_line",
        stats::median(&mut closed.yardstick_ns_per_line),
    );
    measured.set("harness.entries_per_s", ratio(1e9, pass_ns));
    measured.set(
        "harness.cpu_ns_per_entry",
        ratio(
            (closed.cpu_ticks * NS_PER_CPU_TICK) as f64,
            closed.offered as f64,
        ),
    );
    measured.set("harness.generator.late_p99_ms", paced.late_p99_ms);
    measured.set("harness.generator.late_max_ms", paced.late_max_ms);
    measured.set("harness.latency.samples", paced.samples as f64);
    measured.set("harness.latency.p50_ms", paced.p50_ms);

    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let trace_file = out.join(format!("trace-{}.json", workload.name));
    tracer
        .write_json(&trace_file, workload.name, options.seed)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;

    let (correct, attempted, failed) = verdict(&prepared, &closed, &paced);
    prepared.notes.push(format!(
        "{} spans in {}; layers.block self time {:.1} ms",
        tracer.mark(),
        trace_file.display(),
        tracer.total_self_ns("layers.block") as f64 / 1e6,
    ));
    prepared.notes.push(latency_note(&paced));
    Ok(RunResult {
        workload: workload.name,
        correct,
        attempted,
        failed,
        metrics: measured.in_order(&PER_LAYER)?,
        notes: prepared.notes,
    })
}

fn print_golden(
    workload: &'static Workload,
    options: &Options,
    sizes: &Sizes,
) -> Result<(), String> {
    let lines = workload.lines(options.seed, sizes.total)?;
    let reference = endtoend::reference_alerts(workload, &lines)?;
    let golden = Golden {
        input_digest: golden::input_digest(&lines),
        closed: AlertSummary::of(&reference, sizes.closed),
        paced: AlertSummary::of(&reference, lines.len()),
    };
    print!(
        "{}",
        golden.render(workload.name, options.seed, sizes.total, sizes.closed)
    );
    Ok(())
}

fn run(options: &Options) -> Result<bool, String> {
    let sizes = if options.quick { &QUICK } else { &FULL };
    let out = out_dir();
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    let mut all_correct = true;
    for workload in &options.workloads {
        if options.print_golden {
            print_golden(workload, options, sizes)?;
            continue;
        }
        let _ = std::fs::remove_dir_all(&scratch);
        let result = if options.trace {
            run_traced(workload, options, sizes, &scratch, &out)
        } else {
            run_end_to_end(workload, options, sizes, &scratch)
        };
        let _ = std::fs::remove_dir_all(&scratch);
        let result = result.map_err(|e| format!("{}: {e}", workload.name))?;
        all_correct &= result.correct;
        print!("{}", result.to_table());
        println!("{}", result.to_json());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("divscrape-benchmark: {message}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("divscrape-benchmark: outputs did not match the reference");
            ExitCode::from(2)
        }
        Err(message) => {
            eprintln!("divscrape-benchmark: {message}");
            ExitCode::from(1)
        }
    }
}
