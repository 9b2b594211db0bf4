//! `compile-table1`: the paper's own evaluation on one reused `Preparer`.
//!
//! A round runs the 14 Table-1 rows under exact and approximated-0.98
//! options (28 jobs). Structured rows are the same every round; the random
//! rows cycle through `DRAWS` seeded draws, one per round. The run is
//! `SETUPS` segments, each set up afresh and then timed for its share of
//! the run length. Rounds are timed one by one and checked between rounds,
//! outside the timed window, until the segment's timed rounds add up to its
//! share and its last cycle through the draws is whole.
//!
//! Dense simulation of the largest random circuit costs about five times
//! the whole timed round, so each distinct job is simulated once; a job
//! seen before must then return a circuit raw-bit identical to the checked
//! one.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mdq_bench::{table1_rows, Config, Family};
use mdq_circuit::Circuit;
use mdq_core::{synthesize, PrepareOptions, Preparer, SynthesisReport};
use mdq_dd::{BuildOptions, DdArena, StateDd};
use mdq_num::Complex;

use crate::check::{self, GoldenRegister};
use crate::stats::{self, median, ms, process_cpu};
use crate::trace::Tracer;
use crate::{metric, EndToEnd, Metric, Outcome, Slice, SETUPS};

const GOLDEN: &str = "tests/golden/table1.json";

fn options() -> [PrepareOptions; 2] {
    [PrepareOptions::exact(), PrepareOptions::approximated(0.98)]
}

/// Distinct draws of the random rows per run.
const DRAWS: u64 = 4;

/// The inputs of one draw: one state per Table-1 row.
fn draw_inputs(rows: &[Config], seed: u64, draw: u64) -> Vec<Vec<Complex>> {
    let run = (seed % (1 << 40)) * DRAWS + draw;
    rows.iter()
        .map(|row| row.family.state(&row.dims, run))
        .collect()
}

struct Job {
    row: usize,
    exact: bool,
    circuit: Circuit,
    report: SynthesisReport,
}

/// Per-round figures of a traced round.
#[derive(Default)]
struct RoundCounts {
    weight_lookups: u64,
    weight_insertions: u64,
    nodes_initial: u64,
    nodes_final: u64,
    distinct_c_final: u64,
}

fn weight_totals(preparer: &Preparer) -> (u64, u64) {
    preparer
        .weight_stats()
        .map_or((0, 0), |s| (s.lookups, s.insertions))
}

struct Runner {
    rows: Vec<Config>,
    preparer: Preparer,
    /// Arena reused by the traced stage re-runs, as the preparer reuses its
    /// own.
    stage_arena: Option<DdArena>,
    /// Weight-table lookups and insertions summed over traced jobs.
    weights: (u64, u64),
    attempted: u64,
    failed: u64,
}

impl Runner {
    /// Runs one round; with a tracer, each job's stages are re-run and timed
    /// as children of its `core.prepare` span.
    fn round(
        &mut self,
        inputs: &[Vec<Complex>],
        group: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(inputs.len() * 2);
        for (row, amplitudes) in inputs.iter().enumerate() {
            let dims = &self.rows[row].dims.clone();
            for opts in options() {
                self.attempted += 1;
                let weights_before = weight_totals(&self.preparer);
                let start = Instant::now();
                let result = self.preparer.prepare(dims, amplitudes, opts);
                let end = Instant::now();
                let parent = tracer
                    .as_deref_mut()
                    .map(|t| t.record("core.prepare", None, group, start, end));
                match result {
                    Ok(result) => {
                        let (circuit, report) = self.preparer.recycle(result);
                        jobs.push(Job {
                            row,
                            exact: opts.fidelity_threshold.is_none(),
                            circuit,
                            report,
                        });
                    }
                    Err(e) => {
                        self.failed += 1;
                        eprintln!("compile-table1: row {row} failed: {e}");
                    }
                }
                if let (Some(t), Some(parent)) = (tracer.as_deref_mut(), parent) {
                    // As the engine counts them: an approximated job hands
                    // back a fresh arena whose counters restart at zero.
                    let after = weight_totals(&self.preparer);
                    let delta = if after.0 >= weights_before.0 && after.1 >= weights_before.1 {
                        (after.0 - weights_before.0, after.1 - weights_before.1)
                    } else {
                        after
                    };
                    self.weights.0 += delta.0;
                    self.weights.1 += delta.1;
                    self.retime_stages(t, parent, group, dims, amplitudes, opts);
                }
            }
        }
        jobs
    }

    fn retime_stages(
        &mut self,
        t: &mut Tracer,
        parent: usize,
        group: u64,
        dims: &mdq_num::radix::Dims,
        amplitudes: &[Complex],
        opts: PrepareOptions,
    ) {
        let p = Some(parent);
        let build = BuildOptions::default()
            .tolerance(opts.tolerance)
            .keep_zero_subtrees(opts.keep_zero_subtrees);
        let arena = self
            .stage_arena
            .take()
            .unwrap_or_else(|| DdArena::new(opts.tolerance));
        let (initial, _) = t.time("dd.build", p, group, || {
            StateDd::from_amplitudes_in(dims, amplitudes, build, arena)
        });
        let Ok(initial) = initial else { return };
        std::hint::black_box(t.time("dd.metrics", p, group, || initial.distinct_complex_count()));
        let approx = opts.fidelity_threshold.and_then(|threshold| {
            t.time("dd.approx", p, group, || {
                initial.approximate(1.0 - threshold)
            })
            .0
            .ok()
        });
        let dd = approx.as_ref().map_or(&initial, |a| &a.dd);
        std::hint::black_box(t.time("core.synth", p, group, || synthesize(dd, opts.synthesis)));
        std::hint::black_box(t.time("dd.metrics", p, group, || dd.distinct_complex_count()));
        drop(approx);
        let mut arena = initial.into_arena();
        arena.reset();
        self.stage_arena = Some(arena);
    }
}

/// Digests of the jobs already checked, keyed by row, option and draw
/// (structured rows do not depend on the draw).
type Checked = HashMap<(usize, bool, u64), u64>;

/// Checks one round's outputs against dense simulation and the paper's
/// counts; returns the failures.
fn check_round(
    rows: &[Config],
    inputs: &[Vec<Complex>],
    draw: u64,
    jobs: &[Job],
    golden: &[GoldenRegister],
    checked: &mut Checked,
) -> Vec<String> {
    let mut errors = Vec::new();
    for job in jobs {
        let row = &rows[job.row];
        let name = format!(
            "{} {} {}",
            row.family.name(),
            row.label,
            if job.exact { "exact" } else { "approx" }
        );
        let draw = if row.family.is_randomized() { draw } else { 0 };
        let digest = check::digest(&job.circuit);
        if let Some(&first) = checked.get(&(job.row, job.exact, draw)) {
            if digest != first {
                errors.push(format!(
                    "{name}: circuit differs from the same job's earlier one"
                ));
            }
            continue;
        }
        checked.insert((job.row, job.exact, draw), digest);
        let fidelity = check::dense_fidelity(&job.circuit, &inputs[job.row]);
        if job.exact {
            if fidelity < 1.0 - 1e-9 {
                errors.push(format!("{name}: dense fidelity {fidelity} < 1 - 1e-9"));
            }
            let tree = row.dims.full_tree_edge_count();
            if job.report.nodes_initial != tree {
                errors.push(format!(
                    "{name}: Nodes {} != tree edges {tree}",
                    job.report.nodes_initial
                ));
            }
        } else if fidelity < 0.98 || (fidelity - job.report.fidelity_bound).abs() > 1e-9 {
            errors.push(format!(
                "{name}: dense fidelity {fidelity} vs bound {} (need >= 0.98 and within 1e-9)",
                job.report.fidelity_bound
            ));
        }
        if job.report.operations != job.circuit.len() {
            errors.push(format!(
                "{name}: reported {} operations, circuit has {}",
                job.report.operations,
                job.circuit.len()
            ));
        }
        let Some(g) = check::golden_for(golden, &row.dims) else {
            errors.push(format!("{name}: register missing from {GOLDEN}"));
            continue;
        };
        // Table 1 counts the operations of exact synthesis only; an
        // approximated job is checked by its fidelity above.
        let expected = match row.family {
            Family::Random => g.random_exact_operations,
            family => g.operations_of(family.name()),
        }
        .filter(|_| job.exact);
        if let Some(ops) = expected {
            if job.circuit.len() != ops {
                errors.push(format!(
                    "{name}: {} operations, Table 1 has {ops}",
                    job.circuit.len()
                ));
            }
        }
        if job.exact && g.nodes_exact != job.report.nodes_initial {
            errors.push(format!(
                "{name}: Nodes {} != Table 1 {}",
                job.report.nodes_initial, g.nodes_exact
            ));
        }
    }
    errors
}

pub fn run(seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    let golden = check::load_golden(GOLDEN)?;
    let rows = table1_rows();
    let segment = seconds / SETUPS as u32;

    let mut e2e = EndToEnd::default();
    let mut tracer = Tracer::new(Instant::now());
    let mut counts: Vec<RoundCounts> = Vec::new();
    let mut errors = Vec::new();
    let mut checked = Checked::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut round = 0;
    for _ in 0..SETUPS {
        // Set-up: input generation plus one untimed warm-up cycle through
        // the draws on a fresh preparer.
        let start = Instant::now();
        let inputs: Vec<_> = (0..DRAWS).map(|d| draw_inputs(&rows, seed, d)).collect();
        let mut runner = Runner {
            rows: rows.clone(),
            preparer: Preparer::new(),
            stage_arena: None,
            weights: (0, 0),
            attempted: 0,
            failed: 0,
        };
        for draw_inputs in &inputs {
            std::hint::black_box(runner.round(draw_inputs, 0, None));
        }
        e2e.setup_s.push(start.elapsed().as_secs_f64());
        runner.attempted = 0;
        runner.failed = 0;

        // Whole cycles through the draws, so that every segment holds each
        // draw equally often.
        let mut slice = Slice::default();
        while slice.duration < segment || round % DRAWS != 0 {
            let draw = round % DRAWS;
            let inputs = &inputs[draw as usize];
            let weights_before = runner.weights;
            let cpu_before = process_cpu();
            let start = Instant::now();
            let jobs = runner.round(inputs, round, traced.then_some(&mut tracer));
            let duration = start.elapsed();
            slice.cpu += process_cpu().saturating_sub(cpu_before);
            slice.duration += duration;
            slice.jobs += jobs.len() as u64;
            slice.latencies_ms.push(ms(duration));
            let weights_after = runner.weights;

            // Outside the timed window from here on.
            if round == 0 {
                e2e.circuit_ops = jobs.iter().map(|j| j.circuit.len() as u64).sum();
                e2e.circuit_controls = jobs.iter().map(|j| check::control_sum(&j.circuit)).sum();
            }
            counts.push(RoundCounts {
                weight_lookups: weights_after.0 - weights_before.0,
                weight_insertions: weights_after.1 - weights_before.1,
                nodes_initial: jobs.iter().map(|j| j.report.nodes_initial as u64).sum(),
                nodes_final: jobs.iter().map(|j| j.report.nodes_final as u64).sum(),
                distinct_c_final: jobs.iter().map(|j| j.report.distinct_c_final as u64).sum(),
            });
            errors.extend(check_round(
                &rows,
                inputs,
                draw,
                &jobs,
                &golden,
                &mut checked,
            ));
            round += 1;
        }
        e2e.slices.push(slice);
        attempted += runner.attempted;
        failed += runner.failed;
    }
    e2e.peak_rss_mb = stats::peak_rss_mb();

    let mut outcome = Outcome {
        attempted,
        failed,
        errors,
        end_to_end: e2e.metrics(),
        layers: Vec::new(),
        summary: e2e.summary(),
    };
    if traced {
        outcome.layers = layer_metrics(&tracer, &counts);
        crate::write_spans(&tracer, "compile-table1")?;
    }
    Ok(outcome)
}

fn layer_metrics(tracer: &Tracer, counts: &[RoundCounts]) -> Vec<Metric> {
    let per_round_ms =
        |name: &str, self_time: bool| median(&tracer.per_group(name, self_time)) * 1e3;
    let per_round = |f: fn(&RoundCounts) -> u64| {
        median(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    vec![
        metric("dd.build_ms", per_round_ms("dd.build", false), "ms"),
        metric("dd.approx_ms", per_round_ms("dd.approx", false), "ms"),
        metric("core.synth_ms", per_round_ms("core.synth", false), "ms"),
        metric("dd.metrics_ms", per_round_ms("dd.metrics", false), "ms"),
        metric("core.prepare_ms", per_round_ms("core.prepare", false), "ms"),
        metric(
            "core.unattributed_ms",
            per_round_ms("core.prepare", true),
            "ms",
        ),
        metric(
            "num.weight_lookups",
            per_round(|c| c.weight_lookups),
            "count",
        ),
        metric(
            "num.weight_insertions",
            per_round(|c| c.weight_insertions),
            "count",
        ),
        metric("dd.nodes_initial", per_round(|c| c.nodes_initial), "count"),
        metric("dd.nodes_final", per_round(|c| c.nodes_final), "count"),
        metric(
            "dd.distinct_c_final",
            per_round(|c| c.distinct_c_final),
            "count",
        ),
    ]
}
