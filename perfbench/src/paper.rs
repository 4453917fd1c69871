//! `paper_eval`: the paper's evaluation regenerated for a seed-drawn
//! transformer shape — Fig 1b/6/7/8–11 panels, the Fig 12 curve, Table 1
//! and the headline averages — plus a cold sweep, a warm re-sweep, a
//! pruned sweep and cycle-level validation of the frontier's winners.

use crate::checks::{Checks, Digest};
use crate::spans::{SpanTotals, Tracer};
use crate::{attribute, ModelCost, OpOutcome, Scale};
use fusemax_dse::{
    validate_top_k, DesignSpace, PointKey, SweepOutcome, Sweeper, Validation, ARRAY_DIMS,
};
use fusemax_eval::fig8_9::{panel, Metric, Scope};
use fusemax_eval::{fig12, fig1b, fig6, fig7, summary, table1, Grid};
use fusemax_model::{ConfigKind, ModelParams};
use fusemax_workloads::{TransformerConfig, SEQ_LENGTHS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// The `paper_eval` inputs: the seed the per-operation shapes are drawn
/// from and the sweep space's size.
#[derive(Debug)]
pub struct Inputs {
    seed: u64,
    scale: Scale,
}

impl Inputs {
    /// Inputs for `seed`.
    pub fn new(seed: u64, scale: Scale) -> Self {
        Inputs { seed, scale }
    }

    /// Operation `op`'s shape, drawn from the ranges BERT, TrXL, T5 and
    /// XLM span: 6–18 layers, 8–16 heads of 64 or 128, FFN 4× the model
    /// width, batch 64.
    pub fn shape(&self, op: usize) -> TransformerConfig {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (op as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let layers = rng.gen_range(6..19usize);
        let heads = [8, 12, 16][rng.gen_range(0..3usize)];
        let head_dim = [64, 128][rng.gen_range(0..2usize)];
        let d_model = heads * head_dim;
        TransformerConfig {
            name: "Drawn",
            layers,
            heads,
            head_dim,
            d_model,
            ffn_dim: 4 * d_model,
            batch: 64,
        }
    }

    /// The sweep space on `cfg`: every configuration kind × array dims ×
    /// buffer scales × clock overrides × sequence lengths.
    fn space(&self, cfg: &TransformerConfig) -> DesignSpace {
        let space = DesignSpace::new().with_workloads([cfg.clone()]).with_kinds(ConfigKind::all());
        match self.scale {
            Scale::Full => space
                .with_array_dims(ARRAY_DIMS)
                .with_buffer_scales([0.5, 1.0, 2.0])
                .with_frequencies_hz([None, Some(1.2e9)])
                .with_seq_lens([1 << 12, 1 << 16, 1 << 18]),
            Scale::Tiny => space.with_array_dims([64, 128]).with_seq_lens([1 << 12]),
        }
    }

    /// Regenerates the evaluation for operation `op`'s shape.
    pub fn run(&self, op: usize, tracer: &Tracer) -> OpOutcome {
        let params = ModelParams::default();
        let cfg = self.shape(op);
        let space = self.space(&cfg);
        let both =
            |scope| [Metric::Speedup, Metric::EnergyUse].map(|m| panel(&cfg, scope, m, &params));
        let start = Instant::now();
        let out = tracer.span("op", || {
            let sweeper = Sweeper::new(params.clone());
            let figures = Figures {
                fig1b: tracer.span("eval.fig1b", || fig1b::fig1b(&cfg)),
                fig6: tracer.span("eval.fig6", || {
                    [fig6::Array::OneD, fig6::Array::TwoD]
                        .map(|a| fig6::fig6_panel(&cfg, a, &params))
                }),
                fig7: tracer.span("eval.fig7", || {
                    SEQ_LENGTHS.iter().map(|&l| fig7::fig7_panel(&cfg, l, &params)).collect()
                }),
                fig8_9: tracer.span("eval.fig8_9", || both(Scope::Attention)),
                fig10_11: tracer.span("eval.fig10_11", || both(Scope::EndToEnd)),
                fig12: tracer.span("eval.fig12", || fig12::fig12_curve(&cfg, 1 << 18, &params)),
                table1: tracer.span("eval.table1", || {
                    table1::table1().map(|t| table1::render(&t)).map_err(|e| format!("{e:?}"))
                }),
                headline: tracer.span("eval.headline", || {
                    (summary::headline(&params), summary::serving_headline(&params))
                }),
            };
            let cold = tracer.span("dse.sweep.cold", || sweeper.sweep(&space));
            let warm = tracer.span("dse.sweep.warm", || sweeper.sweep(&space));
            let pruned = tracer
                .span("dse.sweep.pruned", || Sweeper::new(params.clone()).sweep_pruned(&space));
            let validations =
                tracer.span("spatial.validate", || validate_top_k(&cold, VALIDATE_TOP_K));
            Output {
                figures,
                cold,
                warm,
                pruned,
                validations,
                cache: (sweeper.cache().hits(), sweeper.cache().misses()),
            }
        });
        let host = start.elapsed();

        let mut checks = Checks::default();
        let mut digest = Digest::default();
        let f = &out.figures;
        let grids = std::iter::once(&f.fig1b)
            .chain(&f.fig6)
            .chain(&f.fig7)
            .chain(&f.fig8_9)
            .chain(&f.fig10_11);
        for grid in grids {
            digest.str(&grid.to_csv());
            checks.ensure(grid.values.iter().flatten().all(|v| v.is_finite() && *v >= 0.0), || {
                format!("{}: non-finite or negative value", grid.title)
            });
        }
        for p in &f.fig12 {
            [p.area_cm2, p.latency_s].into_iter().for_each(|v| digest.f64(v));
        }
        checks.ensure(f.fig12.len() == ARRAY_DIMS.len(), || "Fig 12 curve is incomplete".into());
        match &f.table1 {
            Ok(text) => digest.str(text),
            Err(e) => checks.failures.push(format!("Table 1: {e}")),
        }
        let (h, s) = &f.headline;
        for v in
            [h.attention_speedup_vs_flat, h.e2e_speedup_vs_flat, s.goodput_vs_flat, s.p99_ttft_s]
        {
            checks.ensure(v.is_finite() && v > 0.0, || format!("headline value {v}"));
            digest.f64(v);
        }
        checks.ensure(
            out.warm.stats.cache_hits == out.warm.stats.candidates && out.warm.stats.evaluated == 0,
            || format!("warm re-sweep evaluated {} points", out.warm.stats.evaluated),
        );
        for group in &out.cold.frontiers {
            let exhaustive = frontier_keys(&out.cold, &group.model, group.seq_len);
            checks.ensure(
                exhaustive == frontier_keys(&out.pruned, &group.model, group.seq_len),
                || format!("pruned frontier differs at L={}", group.seq_len),
            );
            for e in group.frontier.points() {
                [e.area_cm2, e.latency_s, e.energy_j].into_iter().for_each(|v| digest.f64(v));
            }
        }
        checks.ensure(!out.validations.is_empty(), || "validate_top_k returned nothing".into());
        for v in &out.validations {
            checks.ensure(v.passed(), || format!("validation failed: {v}"));
            digest.u64(v.sim_cycles);
            digest.f64(v.max_abs_error);
        }

        let mut layers = BTreeMap::new();
        if tracer.enabled() {
            trace_layers(&mut layers, op, tracer, &cfg, &out);
        }
        // `serving_headline` replays the canonical trace on two designs.
        let sim_requests = 2 * summary::canonical_trace().len();
        OpOutcome { host, checks, digest: digest.value(), sim_requests, layers }
    }
}

/// Frontier designs the cycle-level simulator replays per operation.
const VALIDATE_TOP_K: usize = 2;

struct Figures {
    fig1b: Grid,
    fig6: [Grid; 2],
    fig7: Vec<Grid>,
    fig8_9: [Grid; 2],
    fig10_11: [Grid; 2],
    fig12: Vec<fig12::ParetoPoint>,
    table1: Result<String, String>,
    headline: (summary::Headline, summary::ServingHeadline),
}

struct Output {
    figures: Figures,
    cold: SweepOutcome,
    warm: SweepOutcome,
    pruned: SweepOutcome,
    validations: Vec<Validation>,
    cache: (u64, u64),
}

fn frontier_keys(outcome: &SweepOutcome, model: &str, seq_len: usize) -> HashSet<PointKey> {
    outcome
        .frontier_for(model, seq_len)
        .map(|g| g.frontier.points().iter().map(|e| PointKey::of(&e.point)).collect())
        .unwrap_or_default()
}

/// Per-layer metrics of one traced evaluation. Model calls inside the
/// figure functions are counted from the figures' structure (each
/// Fig 10/11 cell compares the unfused baseline with one configuration;
/// the headline runs three configurations per model and length) and timed
/// by calling the model again on the drawn shape.
fn trace_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    op: usize,
    tracer: &Tracer,
    cfg: &TransformerConfig,
    out: &Output,
) {
    let totals = SpanTotals::of(&tracer.spans(), op);
    for (metric, span) in [
        ("eval.fig1b_ms", "eval.fig1b"),
        ("eval.fig6_ms", "eval.fig6"),
        ("eval.fig7_ms", "eval.fig7"),
        ("eval.fig8_9_ms", "eval.fig8_9"),
        ("eval.fig10_11_ms", "eval.fig10_11"),
        ("eval.fig12_ms", "eval.fig12"),
        ("eval.table1_ms", "eval.table1"),
        ("eval.headline_ms", "eval.headline"),
        ("spatial.validate_ms", "spatial.validate"),
    ] {
        layers.insert(metric, totals.total(span));
    }
    let cold = &out.cold.stats;
    layers.insert(
        "dse.sweep.cold_us_per_point",
        totals.total("dse.sweep.cold") * 1e3 / cold.evaluated.max(1) as f64,
    );
    layers.insert(
        "dse.sweep.warm_us_per_point",
        totals.total("dse.sweep.warm") * 1e3 / out.warm.stats.candidates.max(1) as f64,
    );
    let (hits, misses) = out.cache;
    layers.insert("dse.cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    layers.insert(
        "dse.sweep.pruned_skip_ratio",
        out.pruned.stats.pruned as f64 / out.pruned.stats.candidates.max(1) as f64,
    );

    let cells = |grids: &[Grid]| grids.iter().map(|g| g.rows.len() * g.cols.len()).sum::<usize>();
    let canonical = TransformerConfig::all().len() * SEQ_LENGTHS.len();
    let f = &out.figures;
    let e2e_calls = 2 * cells(&f.fig10_11) + 3 * canonical;
    // Fig 7 runs one attention model per configuration column.
    let attention_calls = cells(&f.fig6)
        + f.fig7.iter().map(|g| g.cols.len()).sum::<usize>()
        + 2 * cells(&f.fig8_9)
        + 3 * canonical
        + f.fig12.len();
    let point =
        DesignSpace::new().with_workloads([cfg.clone()]).with_array_dims([256]).points().remove(0);
    let cost = ModelCost::measure(&point, &SEQ_LENGTHS, false);
    let e2e_ms = cost.record(layers, e2e_calls as f64);
    let eval_attention_ms = attention_calls as f64 * cost.attention_ns / 1e6;
    let swept = cold.evaluated + out.pruned.stats.evaluated;
    let dse_attention_ms = swept as f64 * cost.attention_ns / 1e6;
    attribute(
        layers,
        &totals,
        &[("eval", "model", e2e_ms + eval_attention_ms), ("dse", "model", dse_attention_ms)],
    );
}
