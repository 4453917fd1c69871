//! `codesign`: the seeded serving co-design search, run as the acceptance
//! suite runs it.
//!
//! Step 1 sweeps the whole-prompt/FCFS Fig 12 BERT space and ranks it with
//! `ServeObjective::rank`. Steps 2 and 3 run `GeneticSearch` with the
//! serving objective in the loop, over the Fig 12 chips × six scheduler
//! policies (36 points, so the 60-evaluation budget outlasts the space) and
//! over policies × three fleets (108 points, so the budget is the limit).

use crate::checks::{Checks, Digest};
use crate::spans::{SpanTotals, Tracer};
use crate::{attribute, prompt_lengths, record_search, ModelCost, OpOutcome, Scale};
use fusemax_dse::search::{GeneticSearch, SearchBudget, SearchOutcome, SearchStrategy};
use fusemax_dse::{
    DesignSpace, Evaluation, FleetSpec, MeritScore, Objective, PointKey, QueueOrder,
    SchedulerPolicy, Sweeper,
};
use fusemax_model::ModelParams;
use fusemax_serve::{
    Arrivals, Fleet, LengthMix, ServeObjective, ServeSim, Sla, Trace, TrafficSpec,
};
use fusemax_workloads::TransformerConfig;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The acceptance suite's trace and GA seeds. Both are pinned, not drawn
/// from the workload seed: the step-2 search time swings from 0.3 s to
/// over a minute across traces and GA seeds, and a run fits only a few
/// searches, so every operation repeats the acceptance search exactly.
const TRACE_SEED: u64 = 7;
const GA_SEED: u64 = 7;

/// The six-policy scheduler axis of the serving acceptance suite.
fn policy_axis() -> [SchedulerPolicy; 6] {
    [
        SchedulerPolicy::unbounded(),
        SchedulerPolicy::chunked(256),
        SchedulerPolicy::chunked(512),
        SchedulerPolicy::chunked(512).with_queue_order(QueueOrder::ShortestPromptFirst),
        SchedulerPolicy::unbounded().with_queue_order(QueueOrder::ShortestPromptFirst),
        SchedulerPolicy::chunked(512).with_waiting_served_ratio(1.5),
    ]
}

/// The `codesign` inputs.
#[derive(Debug)]
pub struct Inputs {
    trace: Trace,
    sla: Sla,
    fixed_space: DesignSpace,
    policy_space: DesignSpace,
    fleet_space: DesignSpace,
    budget: usize,
}

impl Inputs {
    /// 60 requests at 300 req/s, 512/4096-token prompts 3:1, 8/32 output
    /// tokens, p99 TTFT ≤ 45 ms, a 60-evaluation budget.
    pub fn new(scale: Scale) -> Self {
        let (requests, budget) = match scale {
            Scale::Full => (60, 60),
            Scale::Tiny => (12, 4),
        };
        let trace = TrafficSpec {
            arrivals: Arrivals::Poisson { rate_per_s: 300.0 },
            prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
            output_mix: LengthMix::uniform([8, 32]),
            requests,
        }
        .generate(TRACE_SEED);
        let fixed_space =
            DesignSpace::new().with_workloads([TransformerConfig::bert()]).with_seq_lens([1 << 18]);
        let policy_space = fixed_space.clone().with_policies(policy_axis());
        let fleet_space = policy_space.clone().with_fleets([
            FleetSpec::single(),
            FleetSpec::replicated(2),
            FleetSpec::replicated(4),
        ]);
        Inputs { trace, sla: Sla::p99_ttft(0.045), fixed_space, policy_space, fleet_space, budget }
    }

    /// One co-design search.
    pub fn run(&self, op: usize, tracer: &Tracer) -> OpOutcome {
        let params = ModelParams::default();
        let objective = Arc::new(ServeObjective::new(self.trace.clone(), self.sla));
        let scorer2 = Arc::new(Scorer::new(Arc::clone(&objective), tracer.enabled()));
        let objective3 = Arc::new(ServeObjective::new(self.trace.clone(), self.sla));
        let scorer3 = Arc::new(Scorer::new(Arc::clone(&objective3), tracer.enabled()));
        let search = |space: &DesignSpace, scorer: &Arc<Scorer>| {
            let sweeper = Sweeper::new(params.clone()).with_objective(scorer.clone());
            tracer.span("dse.search", || {
                GeneticSearch::new(GA_SEED).search(
                    &sweeper,
                    space,
                    SearchBudget::evaluations(self.budget),
                )
            })
        };

        let start = Instant::now();
        let (fixed, ranked, o2, o3) = tracer.span("op", || {
            let fixed =
                tracer.span("dse.sweep", || Sweeper::new(params.clone()).sweep(&self.fixed_space));
            let ranked =
                tracer.span("serve.objective", || objective.rank(&fixed.evaluations, &params));
            let o2 = search(&self.policy_space, &scorer2);
            let o3 = search(&self.fleet_space, &scorer3);
            (fixed, ranked, o2, o3)
        });
        let host = start.elapsed();

        let requests = self.trace.len();
        let mut checks = Checks::default();
        let mut digest = Digest::default();
        let (mut sim_requests, mut iterations) = (0, 0);
        checks.ensure(ranked.len() == fixed.evaluations.len(), || {
            format!("rank scored {} of {} designs", ranked.len(), fixed.evaluations.len())
        });
        for (e, s) in &ranked {
            checks.fault_free("rank", &s.report, requests);
            digest_evaluation(&mut digest, e);
            digest.f64(s.goodput_per_cm2);
            digest.report(&s.report);
            sim_requests += s.report.completed;
            iterations += s.report.iterations;
        }
        for (label, outcome, space, scorer, objective) in [
            ("policy search", &o2, &self.policy_space, &scorer2, &objective),
            ("fleet search", &o3, &self.fleet_space, &scorer3, &objective3),
        ] {
            checks.search(label, outcome, self.budget, space.len(), scorer.best());
            // Every evaluation was scored in the loop, so these are memo hits.
            for e in &outcome.evaluations {
                let score = objective.score_detailed(e);
                checks.fault_free(label, &score.report, requests);
                digest_evaluation(&mut digest, e);
                digest.report(&score.report);
                sim_requests += score.report.completed;
                iterations += score.report.iterations;
            }
            if let Some((best, merit)) = &outcome.objective_best {
                digest_evaluation(&mut digest, best);
                digest.f64(merit.merit);
                digest.u64(merit.feasible as u64);
            }
        }

        let mut layers = BTreeMap::new();
        if tracer.enabled() {
            let replayed = Replayed {
                scores: ranked.len() + scorer2.calls() + scorer3.calls(),
                replays: ranked.len() + o2.evaluations.len() + o3.evaluations.len(),
                iterations,
                score_ms: scorer2.score_ms() + scorer3.score_ms(),
            };
            let evaluations =
                ranked.iter().map(|(e, _)| e).chain(&o2.evaluations).chain(&o3.evaluations);
            self.trace_layers(&mut layers, op, tracer, replayed, evaluations, [&o2, &o3]);
        }
        OpOutcome { host, checks, digest: digest.value(), sim_requests, layers }
    }

    /// Per-layer metrics of one traced search. Table builds and the model
    /// calls inside them happen within objective scores, so they are timed
    /// by building each scored design's table again.
    fn trace_layers<'a>(
        &self,
        layers: &mut BTreeMap<&'static str, f64>,
        op: usize,
        tracer: &Tracer,
        replayed: Replayed,
        evaluations: impl Iterator<Item = &'a Arc<Evaluation>>,
        searches: [&SearchOutcome; 2],
    ) {
        let params = ModelParams::default();
        let totals = SpanTotals::of(&tracer.spans(), op);
        let mut seen = HashSet::new();
        let points: Vec<_> =
            evaluations.filter(|e| seen.insert(PointKey::of(&e.point))).map(|e| &e.point).collect();
        let (mut build_ms, mut replay_ms, mut model_calls, mut misses, mut iterations) =
            (0.0, 0.0, 0, 0, 0);
        for point in &points {
            let sim = ServeSim::for_point(point, &params);
            let t = Instant::now();
            let table = sim.service_times(&self.trace);
            build_ms += t.elapsed().as_secs_f64() * 1e3;
            model_calls += table.model_evaluations();
            let t = Instant::now();
            iterations += Fleet::for_point(point, &params).run(&self.trace).iterations;
            replay_ms += t.elapsed().as_secs_f64() * 1e3;
            sim.run_with(&table, &self.trace);
            misses += table.misses();
        }
        let distinct = points.len().max(1) as f64;
        let calls_per_build = model_calls as f64 / distinct;
        layers.insert("serve.objective.scores", replayed.scores as f64);
        layers.insert(
            "serve.objective.ms_per_score",
            (totals.total("serve.objective") + replayed.score_ms) / replayed.scores.max(1) as f64,
        );
        // Each fresh score replays through a fleet, which builds one table;
        // the rest are the objective's memo hits.
        layers.insert("serve.table.builds", replayed.replays as f64);
        layers.insert("serve.table.ms_per_build", build_ms / distinct);
        layers.insert("serve.table.model_calls_per_build", calls_per_build);
        layers.insert("serve.table.misses", misses as f64);
        layers.insert("serve.sim.iterations", replayed.iterations as f64);
        layers.insert(
            "serve.sim.ns_per_iteration",
            (replay_ms - build_ms).max(0.0) * 1e6 / iterations.max(1) as f64,
        );
        layers.insert(
            "dse.search.self_ms",
            (totals.self_time("dse.search") - replayed.score_ms).max(0.0),
        );
        layers.insert(
            "dse.sweep.cold_us_per_point",
            totals.total("dse.sweep") * 1e3 / self.fixed_space.len() as f64,
        );
        record_search(layers, &searches);

        let lens = prompt_lengths(&self.trace);
        let chips = self.fixed_space.points();
        let n = chips.len() as f64;
        let mut cost = ModelCost::default();
        for chip in &chips {
            let c = ModelCost::measure(chip, &lens, true);
            cost.attention_ns += c.attention_ns / n;
            cost.e2e_us += c.e2e_us / n;
            cost.mapper_us += c.mapper_us / n;
            cost.mappers_per_e2e = c.mappers_per_e2e;
        }
        let model_ms = cost.record(layers, replayed.replays as f64 * calls_per_build);
        let swept =
            self.fixed_space.len() + searches.iter().map(|o| o.stats.evaluated).sum::<usize>();
        let attention_ms = swept as f64 * cost.attention_ns / 1e6;
        attribute(
            layers,
            &totals,
            &[
                ("dse", "serve", replayed.score_ms),
                ("serve", "model", model_ms),
                ("dse", "model", attention_ms),
            ],
        );
    }
}

/// Objective work of one traced search.
#[derive(Debug, Clone, Copy)]
struct Replayed {
    /// `Objective::score` calls, memo hits included, plus the ranked designs.
    scores: usize,
    /// Trace replays actually simulated (one per distinct design scored).
    replays: usize,
    /// Engine iterations over those replays.
    iterations: usize,
    /// Host ms inside the in-loop `Objective::score` calls.
    score_ms: f64,
}

fn digest_evaluation(digest: &mut Digest, e: &Evaluation) {
    digest.u64(e.point.array_dim as u64);
    digest.str(&format!("{:?}/{:?}", e.point.policy, e.point.fleet));
    for v in [e.area_cm2, e.latency_s, e.energy_j] {
        digest.f64(v);
    }
}

/// The in-loop objective the searches see: delegates to `ServeObjective`,
/// counts its calls, keeps the best merit it handed out (for the
/// `objective_best` check) and, when tracing, sums the host time of its
/// calls. The GA scores its whole population every generation, so the
/// calls run to millions per search; one span each would triple the
/// tracing overhead, hence one summed child of the `dse.search` span.
struct Scorer {
    inner: Arc<ServeObjective>,
    timed: bool,
    calls: AtomicUsize,
    score_ns: AtomicU64,
    best: Mutex<Option<MeritScore>>,
}

impl Scorer {
    fn new(inner: Arc<ServeObjective>, timed: bool) -> Self {
        Scorer {
            inner,
            timed,
            calls: AtomicUsize::new(0),
            score_ns: AtomicU64::new(0),
            best: Mutex::new(None),
        }
    }

    fn calls(&self) -> usize {
        self.calls.load(Ordering::Relaxed)
    }

    fn score_ms(&self) -> f64 {
        self.score_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn best(&self) -> Option<MeritScore> {
        *self.best.lock().expect("scorer best merit poisoned")
    }
}

impl Objective for Scorer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, evaluation: &Evaluation) -> MeritScore {
        let start = self.timed.then(Instant::now);
        let merit = self.inner.score(evaluation);
        if let Some(start) = start {
            self.score_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut best = self.best.lock().expect("scorer best merit poisoned");
        if best.is_none_or(|b| merit.beats(&b)) {
            *best = Some(merit);
        }
        merit
    }
}
