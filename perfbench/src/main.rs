//! The repository benchmark: one workload per process, end-to-end metrics
//! with tracing off, per-layer metrics from a traced run.
//!
//! ```text
//! perfbench --workload <compile-table1|serve-hot|serve-cold> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable tables go to standard error; the last line of standard
//! output is one JSON object with the run's accounting and metrics. See
//! `README.md` beside this package for the workloads and the metric map.

mod check;
mod compile;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use stats::{median, quantile};

/// Set-ups per run; `setup_s` is their median. `compile-table1` and
/// `serve-hot` split the timed window into this many segments and set up
/// afresh before each, so that the set-up samples are spread over the run
/// as the timed slices are, and a slow spell of the host moves both alike.
/// `serve-cold`, whose open-loop schedule runs unbroken, sets up this many
/// times before its window and keeps the last.
pub const SETUPS: usize = 10;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; the run is correct when this is empty.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Whole-window figures for the human-readable report.
    pub summary: String,
}

/// One slice of the timed window: a segment of `compile-table1` or
/// `serve-hot` (see `SETUPS`), or a fixed interval of `serve-cold`.
#[derive(Debug, Default)]
pub struct Slice {
    pub jobs: u64,
    pub duration: Duration,
    /// Process CPU spent in the slice.
    pub cpu: Duration,
    /// Latencies of the requests completed in the slice, in milliseconds.
    /// A `compile-table1` request is a round, the whole Table-1 evaluation,
    /// so that every request is the same work: the median of the rounds'
    /// jobs would fall between a 0.19 and a 0.78 ms job, and drifted twice
    /// as far between runs as the rate did.
    pub latencies_ms: Vec<f64>,
}

/// The raw figures every workload's end-to-end metrics derive from.
///
/// The 2-vCPU host this benchmark was tuned on runs up to 1.6× slower for
/// spells of seconds to minutes, whatever runs. Rates and CPU per job are
/// whole-window means (all jobs over the summed slice time and CPU), which
/// follow the share of slow time smoothly, where a median over slices
/// flips between the fast and the slow speed. Latency quantiles are taken
/// per slice and the run reports their median over the slices, which moves
/// with a change that slows most of the run and not with a slow spell that
/// covers less than half of it. The whole-window quantiles are printed on
/// standard error.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub slices: Vec<Slice>,
    /// One sample per set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// `VmHWM` read right after the timed window.
    pub peak_rss_mb: f64,
    /// Operations over the workload's fixed seeded round.
    pub circuit_ops: u64,
    /// Controls summed over the same operations.
    pub circuit_controls: u64,
}

impl EndToEnd {
    pub fn jobs(&self) -> u64 {
        self.slices.iter().map(|s| s.jobs).sum()
    }

    fn window(&self) -> Duration {
        self.slices.iter().map(|s| s.duration).sum()
    }

    fn cpu_ms_per_job(&self) -> f64 {
        let cpu: Duration = self.slices.iter().map(|s| s.cpu).sum();
        stats::ms(cpu) / self.jobs() as f64
    }

    fn all_latencies(&self) -> Vec<f64> {
        self.slices
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect()
    }

    /// Latency quantile `q` of each slice, median over the slices.
    fn latency(&self, q: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.jobs > 0)
            .map(|s| quantile(&s.latencies_ms, q))
            .collect();
        median(&per_slice)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric(
                "jobs_per_s",
                self.jobs() as f64 / self.window().as_secs_f64(),
                "1/s",
            ),
            metric("latency_p50_ms", self.latency(0.5), "ms"),
            metric("cpu_ms_per_job", self.cpu_ms_per_job(), "ms"),
            metric("setup_s", median(&self.setup_s), "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric("circuit_ops", self.circuit_ops as f64, "count"),
            metric("circuit_controls", self.circuit_controls as f64, "count"),
        ]
    }

    /// Whole-window quantiles, the p99 in the metrics' manner and the
    /// set-up samples, printed beside the metrics.
    ///
    /// p99 is not a metric: a `serve-hot` request takes about 3 ms, and
    /// whether more than 1% of them meet one of the host's stalls of 5 to
    /// 40 ms decides it. Pinned to one CPU, its median over slices read
    /// 3.4 ms in one set of runs and 6.3 ms in a run half an hour later, and
    /// per slice it ranged from 4.3 to 13.7 ms within one run, while p50
    /// held within 6%.
    pub fn summary(&self) -> String {
        let all = self.all_latencies();
        format!(
            "whole window: {} jobs in {} slices over {:.2} s: p50 {:.3} ms, p99 {:.3} ms over all {} latencies; p99 per slice, median over slices {:.3} ms; set-up samples {:.4?} s",
            self.jobs(),
            self.slices.len(),
            self.window().as_secs_f64(),
            median(&all),
            quantile(&all, 0.99),
            all.len(),
            self.latency(0.99),
            self.setup_s,
        )
    }
}

/// Where runs keep their files: inside the checkout's ignored build
/// directory.
const RUN_DIR: &str = ".bench_build/perfbench-run";

/// The run's scratch directory (unix socket, snapshots); the workload
/// removes it when it ends.
pub fn work_dir(workload: &str) -> PathBuf {
    let dir = PathBuf::from(RUN_DIR).join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run's work directory");
    dir
}

/// Writes a traced run's spans to `<RUN_DIR>/<workload>.spans.tsv`,
/// replacing the previous traced run's.
pub fn write_spans(tracer: &trace::Tracer, workload: &str) -> Result<(), String> {
    let path = PathBuf::from(RUN_DIR).join(format!("{workload}.spans.tsv"));
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let args = Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    Ok(args)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values are not JSON; they only arise from a run with
        // no samples, which the accounting already reports as failed.
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

fn print_table(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        eprintln!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <compile-table1|serve-hot|serve-cold> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let seconds = Duration::from_secs_f64(args.seconds);
    let outcome = match args.workload.as_str() {
        "compile-table1" => compile::run(args.seed, seconds, args.trace),
        "serve-hot" => serve::run_hot(args.seed, seconds, args.trace),
        "serve-cold" => serve::run_cold(args.seed, seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let mode = if args.trace { "traced" } else { "untraced" };
    eprintln!(
        "{} seed {} ({mode}): {} attempted, {} failed, {} check failure(s)",
        args.workload,
        args.seed,
        outcome.attempted,
        outcome.failed,
        outcome.errors.len()
    );
    for e in outcome.errors.iter().take(10) {
        eprintln!("  check failed: {e}");
    }
    eprintln!("{}", outcome.summary);
    print_table("end-to-end:", &outcome.end_to_end);
    if args.trace {
        print_table("per-layer:", &outcome.layers);
    }
    let (metrics, extra) = if args.trace {
        (
            &outcome.layers,
            format!(
                ", \"traced_end_to_end\": {}",
                json_metrics(&outcome.end_to_end)
            ),
        )
    } else {
        (&outcome.end_to_end, String::new())
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}{extra}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        json_metrics(metrics)
    );
    ExitCode::SUCCESS
}
