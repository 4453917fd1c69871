//! Host-time benchmark of the fusemax workspace.
//!
//! Three workloads drive the libraries' public APIs: `codesign` (the
//! seeded serving co-design search), `serve_overload` (long trace replays
//! far above one chip's capacity, plus fleets) and `paper_eval` (the
//! paper's figures, tables and sweeps for a seed-drawn transformer
//! shape). Every operation is checked for correctness and
//! hashed into a digest of its simulated statistics; a traced run adds
//! per-layer host-time metrics. `src/main.rs` is the command line.

pub mod checks;
mod codesign;
mod paper;
mod serving;
pub mod spans;

use checks::Checks;
use fusemax_dse::search::SearchOutcome;
use fusemax_model::{
    attention_report, e2e_report_on, layer_gemms, search_gemm_mapping, ConfigKind, ModelParams,
};
use spans::{SpanTotals, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seeded serving co-design search of the acceptance suite.
    Codesign,
    /// Long replays far above one chip's capacity: queue order, admission,
    /// shedding, and the same traffic spread over fleets.
    ServeOverload,
    /// The paper's figures, tables and sweeps for a seed-drawn shape.
    PaperEval,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::Codesign, Workload::ServeOverload, Workload::PaperEval];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Codesign => "codesign",
            Workload::ServeOverload => "serve_overload",
            Workload::PaperEval => "paper_eval",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is what the benchmark measures; `Tiny` runs the
/// same code paths in milliseconds for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

/// Everything a workload generates before its first operation (built once
/// per set-up, so the variants' size difference costs nothing).
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// `codesign` inputs.
    Codesign(codesign::Inputs),
    /// `serve_overload` inputs.
    Serve(serving::Inputs),
    /// `paper_eval` inputs.
    Paper(paper::Inputs),
}

/// Generates a workload's inputs from its seed.
pub fn setup(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    match workload {
        Workload::Codesign => Inputs::Codesign(codesign::Inputs::new(scale)),
        Workload::ServeOverload => Inputs::Serve(serving::Inputs::overload(seed, scale)),
        Workload::PaperEval => Inputs::Paper(paper::Inputs::new(seed, scale)),
    }
}

/// What one operation produced.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    /// Host time of the operation's library calls (checks excluded).
    pub host: Duration,
    /// Failed correctness checks.
    pub checks: Checks,
    /// Digest of every simulated statistic the operation produced.
    pub digest: u64,
    /// Simulated requests completed.
    pub sim_requests: usize,
    /// Per-layer metrics (traced operations only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Runs operation `op` (its inputs vary with `op` where the workload says
/// so). With an enabled tracer the calls are wrapped in spans and the
/// per-layer metrics are filled in after the timed section.
pub fn run_op(inputs: &Inputs, op: usize, tracer: &Tracer) -> OpOutcome {
    tracer.begin_op(op);
    match inputs {
        Inputs::Codesign(i) => i.run(op, tracer),
        Inputs::Serve(i) => i.run(op, tracer),
        Inputs::Paper(i) => i.run(op, tracer),
    }
}

/// The correctness verdict of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations run, traced and untraced.
    pub attempted: usize,
    /// Operations with at least one failed check.
    pub failed: usize,
    /// Whether each traced operation's digest equals that of the untraced
    /// operation at the same index.
    pub digests_match: bool,
}

impl Tally {
    /// Tallies a run's operations; `traced[i]` re-ran `untraced[i]`'s inputs.
    pub fn of(untraced: &[OpOutcome], traced: &[OpOutcome]) -> Self {
        let all = || untraced.iter().chain(traced);
        Tally {
            attempted: all().count(),
            failed: all().filter(|o| !o.checks.passed()).count(),
            digests_match: traced.iter().zip(untraced).all(|(t, u)| t.digest == u.digest),
        }
    }
}

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("model.attention.ns_per_call", "ns"),
    ("model.e2e.calls", "count"),
    ("model.e2e.us_per_call", "us"),
    ("model.mapper.calls", "count"),
    ("model.mapper.us_per_call", "us"),
    ("dse.sweep.cold_us_per_point", "us"),
    ("dse.sweep.warm_us_per_point", "us"),
    ("dse.cache.hit_ratio", "ratio"),
    ("dse.sweep.pruned_skip_ratio", "ratio"),
    ("dse.search.self_ms", "ms"),
    ("dse.search.evals", "count"),
    ("dse.search.revisits", "count"),
    ("dse.search.revisits_per_eval", "ratio"),
    ("dse.search.multi_point_batch_ratio", "ratio"),
    ("serve.objective.scores", "count"),
    ("serve.objective.ms_per_score", "ms"),
    ("serve.table.builds", "count"),
    ("serve.table.ms_per_build", "ms"),
    ("serve.table.model_calls_per_build", "count"),
    ("serve.table.misses", "count"),
    ("serve.sim.iterations", "count"),
    ("serve.sim.ns_per_iteration", "ns"),
    ("serve.fleet.replicated_ms", "ms"),
    ("serve.fleet.disaggregated_ms", "ms"),
    ("serve.fault.ms", "ms"),
    ("serve.fault.retries", "count"),
    ("serve.fault.sheds", "count"),
    ("eval.fig1b_ms", "ms"),
    ("eval.fig6_ms", "ms"),
    ("eval.fig7_ms", "ms"),
    ("eval.fig8_9_ms", "ms"),
    ("eval.fig10_11_ms", "ms"),
    ("eval.fig12_ms", "ms"),
    ("eval.table1_ms", "ms"),
    ("eval.headline_ms", "ms"),
    ("spatial.validate_ms", "ms"),
    ("layer.model.self_ms", "ms"),
    ("layer.dse.self_ms", "ms"),
    ("layer.serve.self_ms", "ms"),
    ("layer.eval.self_ms", "ms"),
    ("layer.spatial.self_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ms", "ms"),
];

/// Mean host ns per call of `f`, repeated until at least `min` has
/// elapsed (and at least three calls).
pub(crate) fn ns_per_call<R>(min: Duration, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || start.elapsed() < min {
        black_box(f());
        calls += 1;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Host cost of the analytical model on one design, re-measured by
/// calling its public functions on the operation's own inputs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ModelCost {
    /// `attention_report`, ns per call.
    pub attention_ns: f64,
    /// `e2e_report_on`, µs per call.
    pub e2e_us: f64,
    /// `search_gemm_mapping`, µs per call.
    pub mapper_us: f64,
    /// Mapper calls inside one `e2e_report_on` (one per layer GEMM).
    pub mappers_per_e2e: f64,
}

impl ModelCost {
    /// Times the model for `point`'s design at every length in `lens`
    /// (`batch1` evaluates the workload at batch 1, as serving tables do).
    pub fn measure(point: &fusemax_dse::DesignPoint, lens: &[usize], batch1: bool) -> Self {
        let params = ModelParams::default();
        let cfg = if batch1 { point.workload.with_batch(1) } else { point.workload.clone() };
        let budget = Duration::from_millis(2);
        let n = lens.len().max(1) as f64;
        let mut cost = ModelCost::default();
        for &l in lens {
            cost.attention_ns += ns_per_call(budget, || {
                attention_report(point.kind, &cfg, l, Some(&point.arch), &params)
            }) / n;
            cost.e2e_us +=
                ns_per_call(budget, || e2e_report_on(point.kind, &cfg, l, &point.arch, &params))
                    / 1e3
                    / n;
            let gemms = layer_gemms(&cfg, l);
            cost.mappers_per_e2e += gemms.len() as f64 / n;
            cost.mapper_us += ns_per_call(budget, || {
                gemms.iter().map(|g| search_gemm_mapping(g, &point.arch)).collect::<Vec<_>>()
            }) / 1e3
                / gemms.len().max(1) as f64
                / n;
        }
        cost
    }

    /// Records the model metrics for `e2e_calls` calls and returns their
    /// estimated host ms.
    pub fn record(&self, layers: &mut BTreeMap<&'static str, f64>, e2e_calls: f64) -> f64 {
        layers.insert("model.attention.ns_per_call", self.attention_ns);
        layers.insert("model.e2e.calls", e2e_calls);
        layers.insert("model.e2e.us_per_call", self.e2e_us);
        layers.insert("model.mapper.calls", e2e_calls * self.mappers_per_e2e);
        layers.insert("model.mapper.us_per_call", self.mapper_us);
        e2e_calls * self.e2e_us / 1e3
    }
}

/// Fills the per-layer self times from one operation's spans. Time one
/// layer spends inside another layer's calls is not visible as spans;
/// `nested` lists `(layer whose spans contain it, layer it belongs to,
/// ms)` moves, applied in order and each capped at what the containing
/// layer has left. Time inside the `op` span outside every child span is
/// reported as unattributed.
pub(crate) fn attribute(
    layers: &mut BTreeMap<&'static str, f64>,
    totals: &SpanTotals,
    nested: &[(&str, &str, f64)],
) {
    let mut own: BTreeMap<&str, f64> = ["model", "dse", "serve", "eval", "spatial"]
        .into_iter()
        .map(|layer| (layer, totals.layer_self(layer)))
        .collect();
    for &(outer, inner, ms) in nested {
        let available = own[outer];
        let moved = ms.clamp(0.0, available);
        own.insert(outer, available - moved);
        *own.entry(inner).or_default() += moved;
    }
    for (layer, key) in [
        ("model", "layer.model.self_ms"),
        ("dse", "layer.dse.self_ms"),
        ("serve", "layer.serve.self_ms"),
        ("eval", "layer.eval.self_ms"),
        ("spatial", "layer.spatial.self_ms"),
    ] {
        layers.insert(key, own[layer]);
    }
    layers.insert("unattributed_ms", totals.self_time("op"));
}

/// Search-layer counters of guided runs.
pub(crate) fn record_search(layers: &mut BTreeMap<&'static str, f64>, runs: &[&SearchOutcome]) {
    let sum = |f: fn(&SearchOutcome) -> usize| runs.iter().map(|o| f(o)).sum::<usize>() as f64;
    let evals = sum(|o| o.stats.requested);
    let revisits = sum(|o| o.stats.revisits);
    let batches = sum(|o| o.stats.batches);
    layers.insert("dse.search.evals", evals);
    layers.insert("dse.search.revisits", revisits);
    layers.insert("dse.search.revisits_per_eval", revisits / evals.max(1.0));
    layers.insert(
        "dse.search.multi_point_batch_ratio",
        sum(|o| o.stats.multi_point_batches) / batches.max(1.0),
    );
}

/// The paper's canonical-workload headline numbers against FLAT.
pub const PAPER_HEADLINE: [(&str, f64); 4] = [
    ("paper_err_attn_speedup", 6.7),
    ("paper_err_attn_energy", 0.79),
    ("paper_err_e2e_speedup", 5.3),
    ("paper_err_e2e_energy", 0.83),
];

/// `(metric, paper value, model value, relative error)` for each
/// [`PAPER_HEADLINE`] entry, from `fusemax_eval::summary::headline`.
pub fn paper_errors() -> Vec<(&'static str, f64, f64, f64)> {
    let h = fusemax_eval::summary::headline(&ModelParams::default());
    let model = [
        h.attention_speedup_vs_flat,
        h.attention_energy_vs_flat,
        h.e2e_speedup_vs_flat,
        h.e2e_energy_vs_flat,
    ];
    PAPER_HEADLINE
        .iter()
        .zip(model)
        .map(|(&(name, paper), model)| (name, paper, model, (model - paper).abs() / paper))
        .collect()
}

/// The checked-in golden renders the canonical figures must reproduce,
/// as `(file under tests/golden, current render)`.
pub fn golden_renders() -> Vec<(&'static str, String)> {
    use fusemax_eval::fig8_9::{figure, Metric, Scope};
    use fusemax_eval::{fig1b, fig6, fig7, table1, Grid};
    let params = ModelParams::default();
    let csv = |grids: &[Grid]| grids.iter().map(Grid::to_csv).collect::<Vec<_>>().join("\n");
    let pair = |a: Vec<Grid>, b: Vec<Grid>| format!("{}\n{}", csv(&a), csv(&b));
    let fig1b: Vec<Grid> =
        fusemax_workloads::TransformerConfig::all().iter().map(fig1b::fig1b).collect();
    vec![
        ("fig1b_compute.csv", csv(&fig1b)),
        (
            "fig6_utilization.csv",
            pair(fig6::fig6(fig6::Array::OneD, &params), fig6::fig6(fig6::Array::TwoD, &params)),
        ),
        ("fig7_einsum_share.csv", csv(&fig7::fig7(&params))),
        (
            "fig8_9_attention.csv",
            pair(
                figure(Scope::Attention, Metric::Speedup, &params),
                figure(Scope::Attention, Metric::EnergyUse, &params),
            ),
        ),
        (
            "fig10_11_e2e.csv",
            pair(
                figure(Scope::EndToEnd, Metric::Speedup, &params),
                figure(Scope::EndToEnd, Metric::EnergyUse, &params),
            ),
        ),
        ("table1.txt", table1::render(&table1::table1().expect("Table 1 pass analysis"))),
    ]
}

/// The distinct prompt lengths of `trace`, ascending: the lengths its
/// service-time table evaluates the model at.
pub(crate) fn prompt_lengths(trace: &fusemax_serve::Trace) -> Vec<usize> {
    let mut lens: Vec<usize> = trace.requests.iter().map(|r| r.prompt_tokens).collect();
    lens.sort_unstable();
    lens.dedup();
    lens
}

/// The FuseMax (+Binding) design the serving workloads run on: the
/// Fig 12 BERT chip scaled to a `dim × dim` array.
pub(crate) fn bert_chip(dim: usize) -> fusemax_dse::DesignPoint {
    fusemax_dse::DesignSpace::new()
        .with_array_dims([dim])
        .with_kinds([ConfigKind::FuseMaxBinding])
        .with_workloads([fusemax_workloads::TransformerConfig::bert()])
        .points()
        .remove(0)
}
