//! Acceptance suite for the guided design-space search subsystem: every
//! strategy is deterministic given a seed, shares the exhaustive sweep's
//! `EvalCache` (a guided run after a full sweep performs **zero** new
//! model evaluations), and recovers ≥90% of the exhaustive Pareto
//! hypervolume on the Fig 12 space within a 25% evaluation budget.

use fusemax::dse::search::{
    convergence, hypervolume_fraction, GeneticSearch, RandomSearch, SearchBudget, SearchOutcome,
    SearchStrategy, SimulatedAnnealing, SnapPolicy,
};
use fusemax::dse::{
    dominates, DesignSpace, FleetSpec, Objectives, PointKey, QueueOrder, SchedulerPolicy, Sweeper,
};
use fusemax::model::{ConfigKind, ModelParams};
use fusemax::workloads::TransformerConfig;
use std::hash::{Hash, Hasher};

/// The Fig 12 acceptance space: the paper's six array dimensions at 256K
/// tokens, widened with the full configuration axis and the
/// frequency/buffer knobs so a guided search has real decisions to make.
/// 6 dims × 5 kinds × 2 frequencies × 3 buffer scales = 180 candidates,
/// one `(BERT, 256K)` frontier group.
fn fig12_space() -> DesignSpace {
    DesignSpace::new()
        .with_kinds(ConfigKind::all())
        .with_workloads([TransformerConfig::bert()])
        .with_frequencies_hz([None, Some(470e6)])
        .with_buffer_scales([0.5, 1.0, 2.0])
}

/// A multi-group space (2 workloads × 2 lengths) for the group-handling
/// tests.
fn multi_group_space() -> DesignSpace {
    DesignSpace::new()
        .with_kinds([
            ConfigKind::Unfused,
            ConfigKind::Flat,
            ConfigKind::FuseMaxArch,
            ConfigKind::FuseMaxBinding,
        ])
        .with_workloads([TransformerConfig::bert(), TransformerConfig::xlm()])
        .with_seq_lens([1 << 14, 1 << 18])
}

/// The three strategies under test, seeded identically.
fn strategies(seed: u64) -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(RandomSearch::new(seed)),
        Box::new(GeneticSearch::new(seed)),
        Box::new(SimulatedAnnealing::new(seed)),
    ]
}

#[test]
fn every_strategy_recovers_90pct_hypervolume_at_quarter_budget() {
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    let budget = SearchBudget::fraction(&space, 0.25);
    assert_eq!(budget.evaluations, 45);

    for strategy in strategies(7) {
        // Fresh sweeper per strategy: no help from the exhaustive cache,
        // the budget is all the strategy gets.
        let cold = Sweeper::new(ModelParams::default());
        let outcome = strategy.search(&cold, &space, budget);
        assert!(outcome.stats.requested <= budget.evaluations, "{} overspent", strategy.name());
        assert_eq!(
            outcome.stats.evaluated,
            outcome.stats.requested,
            "{} had no cache to draw from",
            strategy.name()
        );
        let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
        assert!(
            fraction >= 0.90,
            "{} recovered only {:.1}% of the exhaustive hypervolume with {} evaluations",
            strategy.name(),
            fraction * 100.0,
            outcome.stats.requested
        );
    }
}

#[test]
fn guided_run_after_a_full_sweep_performs_zero_new_evaluations() {
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    sweeper.sweep(&space);
    let cached = sweeper.cache().len();

    for strategy in strategies(3) {
        let outcome = strategy.search(&sweeper, &space, SearchBudget::fraction(&space, 0.25));
        assert!(outcome.stats.requested > 0);
        assert_eq!(
            outcome.stats.evaluated,
            0,
            "{} re-ran the model despite a fully warmed shared cache",
            strategy.name()
        );
        assert_eq!(outcome.stats.cache_hits, outcome.stats.requested, "{}", strategy.name());
    }
    assert_eq!(sweeper.cache().len(), cached, "guided runs must not grow a complete cache");
}

#[test]
fn exhaustive_sweep_reuses_guided_evaluations() {
    // Sharing goes both ways: a full sweep after a guided run gets the
    // guided evaluations for free.
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let guided =
        GeneticSearch::new(11).search(&sweeper, &space, SearchBudget::fraction(&space, 0.25));
    let outcome = sweeper.sweep(&space);
    assert_eq!(outcome.stats.cache_hits, guided.stats.requested);
    assert_eq!(outcome.stats.evaluated, space.len() - guided.stats.requested);
}

#[test]
fn strategies_are_deterministic_given_a_seed() {
    let space = fig12_space();
    for strategy in ["random", "genetic", "annealing"] {
        let run = |seed: u64| {
            let sweeper = Sweeper::new(ModelParams::default());
            let s: Box<dyn SearchStrategy> = match strategy {
                "random" => Box::new(RandomSearch::new(seed)),
                "genetic" => Box::new(GeneticSearch::new(seed)),
                _ => Box::new(SimulatedAnnealing::new(seed)),
            };
            s.search(&sweeper, &space, SearchBudget::evaluations(30))
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.evaluations.len(), b.evaluations.len(), "{strategy}");
        for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
            assert_eq!(x.point, y.point, "{strategy} diverged");
            assert_eq!(x.latency_s.to_bits(), y.latency_s.to_bits(), "{strategy}");
        }
        let c = run(6);
        assert!(
            a.evaluations.iter().zip(&c.evaluations).any(|(x, y)| x.point != y.point),
            "{strategy}: different seeds explored identically"
        );
    }
}

#[test]
fn multi_group_spaces_get_per_group_frontiers() {
    let space = multi_group_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    assert_eq!(exhaustive.frontiers.len(), 4);

    for strategy in strategies(7) {
        let cold = Sweeper::new(ModelParams::default());
        let outcome = strategy.search(&cold, &space, SearchBudget::fraction(&space, 0.25));
        let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
        assert!(
            fraction >= 0.80,
            "{}: {:.1}% over {} groups",
            strategy.name(),
            fraction * 100.0,
            outcome.frontiers.len()
        );
    }
}

#[test]
fn convergence_harness_tracks_hypervolume_vs_evaluations() {
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);

    for strategy in strategies(7) {
        let outcome = strategy.search(&sweeper, &space, SearchBudget::fraction(&space, 0.25));
        let curve = convergence(&outcome, &exhaustive, 9);
        assert_eq!(curve.strategy, strategy.name());
        assert!(!curve.samples.is_empty());
        for w in curve.samples.windows(2) {
            assert!(w[0].evaluations < w[1].evaluations);
            assert!(
                w[0].fraction <= w[1].fraction + 1e-12,
                "{}: hypervolume shrank",
                strategy.name()
            );
        }
        let final_fraction = curve.final_fraction();
        assert_eq!(final_fraction, hypervolume_fraction(&outcome.frontiers, &exhaustive));
        let to_90 = curve.evaluations_to_reach(0.9);
        assert!(
            to_90.is_some_and(|n| n <= outcome.stats.requested),
            "{} never reached 90% (final {:.3})",
            strategy.name(),
            final_fraction
        );
    }
}

#[test]
fn continuous_annealing_dominates_the_grid_frontier_off_grid() {
    // The tentpole acceptance: a SnapPolicy::Continuous annealing run on
    // the Fig 12 space must find at least one genuinely off-grid design
    // that Pareto-dominates a point on the exhaustive *grid* frontier —
    // proof that the grid cannot express the true frontier.
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    let grid_frontier = exhaustive.frontier_points();

    let cold = Sweeper::new(ModelParams::default());
    let outcome = SimulatedAnnealing::new(1).with_snap_policy(SnapPolicy::Continuous).search(
        &cold,
        &space,
        SearchBudget::fraction(&space, 0.25),
    );

    let off_grid: Vec<_> =
        outcome.evaluations.iter().filter(|e| !space.is_on_grid(&e.point)).collect();
    assert!(!off_grid.is_empty(), "a continuous run never left the grid");

    let dominators = off_grid
        .iter()
        .filter(|e| grid_frontier.iter().any(|g| dominates(&e.objectives(), &g.objectives())))
        .count();
    assert!(
        dominators >= 1,
        "no off-grid design dominated a grid frontier point ({} off-grid evaluations)",
        off_grid.len()
    );

    // And the run still scores against the exhaustive grid baseline.
    let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
    assert!(
        fraction >= 0.90,
        "continuous run recovered only {:.1}% of the grid hypervolume",
        fraction * 100.0
    );
    let curve = convergence(&outcome, &exhaustive, 9);
    assert_eq!(curve.final_fraction(), fraction, "convergence must use the same scoring");
}

#[test]
fn continuous_genetic_search_evaluates_off_grid_children() {
    let space = fig12_space();
    let cold = Sweeper::new(ModelParams::default());
    let outcome = GeneticSearch::new(7).with_snap_policy(SnapPolicy::Continuous).search(
        &cold,
        &space,
        SearchBudget::fraction(&space, 0.5),
    );
    let off_grid = outcome.evaluations.iter().filter(|e| !space.is_on_grid(&e.point)).count();
    assert!(off_grid > 0, "no jittered child was evaluated off-grid");
}

#[test]
fn continuous_strategies_are_deterministic_per_seed() {
    let space = fig12_space();
    let run = |seed: u64| {
        let sweeper = Sweeper::new(ModelParams::default());
        SimulatedAnnealing::new(seed).with_snap_policy(SnapPolicy::Continuous).search(
            &sweeper,
            &space,
            SearchBudget::evaluations(30),
        )
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(a.evaluations.len(), b.evaluations.len());
    for (x, y) in a.evaluations.iter().zip(&b.evaluations) {
        assert_eq!(x.point, y.point, "continuous annealing diverged");
        assert_eq!(x.latency_s.to_bits(), y.latency_s.to_bits());
    }
    let c = run(6);
    assert!(
        a.evaluations.iter().zip(&c.evaluations).any(|(x, y)| x.point != y.point),
        "different seeds explored identically"
    );
}

#[test]
fn screening_cuts_full_evaluations_at_equal_hypervolume() {
    // The multi-fidelity acceptance: with the lower-bound screen on, a
    // budget 20% below the unscreened PR-2 baseline (45 evaluations at
    // 25%) must still recover ≥90% of the exhaustive hypervolume — the
    // screen spends cheap bound checks instead of model evaluations on
    // provably-dominated candidates.
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let exhaustive = sweeper.sweep(&space);
    let baseline = SearchBudget::fraction(&space, 0.25);
    assert_eq!(baseline.evaluations, 45);
    let reduced = SearchBudget::evaluations(baseline.evaluations * 4 / 5);
    assert_eq!(reduced.evaluations, 36);

    let screened: Vec<Box<dyn SearchStrategy>> = vec![
        Box::new(RandomSearch::new(7).with_screening(true)),
        Box::new(GeneticSearch::new(7).with_screening(true)),
        Box::new(SimulatedAnnealing::new(7).with_screening(true)),
    ];
    for strategy in screened {
        let cold = Sweeper::new(ModelParams::default());
        let outcome = strategy.search(&cold, &space, reduced);
        // The cut itself: the run may not exceed the reduced budget (so
        // relative to the 45-evaluation PR-2 baseline it spent ≥20%
        // less), and — the non-vacuous half — the screen must have
        // absorbed real load: the proposals it rejected, had they been
        // evaluated instead, would have overflowed the reduced budget.
        assert!(
            outcome.stats.evaluated <= reduced.evaluations,
            "{}: overspent the reduced budget",
            strategy.name()
        );
        assert!(
            outcome.stats.evaluated + outcome.stats.screened > reduced.evaluations,
            "{}: the screen diverted nothing ({} evaluated + {} screened ≤ {} budget)",
            strategy.name(),
            outcome.stats.evaluated,
            outcome.stats.screened,
            reduced.evaluations
        );
        assert!(
            outcome.stats.screened > 0,
            "{}: the lower-bound screen never rejected anything",
            strategy.name()
        );
        assert!(
            outcome.stats.screened <= reduced.cheap,
            "{}: screening overspent the cheap budget",
            strategy.name()
        );
        let fraction = hypervolume_fraction(&outcome.frontiers, &exhaustive);
        assert!(
            fraction >= 0.90,
            "{}: only {:.1}% of the exhaustive hypervolume with screening on",
            strategy.name(),
            fraction * 100.0
        );
    }
}

#[test]
fn screened_rejections_never_evict_real_frontier_points() {
    // Soundness: screening only rejects candidates whose *optimistic*
    // bound is dominated, so every design on the unscreened frontier
    // is either found or dominated by the screened run's frontier...
    // but with a reduced trajectory the screened run may simply not
    // visit a point. What must hold unconditionally: every screened
    // run's frontier point is a real evaluation, and the screen itself
    // charged no model evaluations.
    let space = fig12_space();
    let cold = Sweeper::new(ModelParams::default());
    let outcome = RandomSearch::new(3).with_screening(true).search(
        &cold,
        &space,
        SearchBudget::evaluations(30),
    );
    assert_eq!(
        outcome.stats.evaluated + outcome.stats.cache_hits,
        outcome.stats.requested,
        "screened rejections must not be charged as requests"
    );
    for group in &outcome.frontiers {
        for point in group.frontier.points() {
            assert!(outcome.evaluations.iter().any(|e| std::sync::Arc::ptr_eq(e, point)));
        }
    }
}

#[test]
fn off_grid_evaluations_replay_from_the_warm_cache() {
    // Off-grid entries key canonically: a same-seed continuous replay on
    // the warm sweeper lands on every entry the first run cached, so it
    // evaluates nothing and returns the same points and latencies.
    let space = fig12_space();
    let warm = Sweeper::new(ModelParams::default());
    let run = || {
        SimulatedAnnealing::new(1).with_snap_policy(SnapPolicy::Continuous).search(
            &warm,
            &space,
            SearchBudget::evaluations(25),
        )
    };
    let first = run();
    assert!(first.evaluations.iter().any(|e| !space.is_on_grid(&e.point)));
    let cached = warm.cache().len();

    let replay = run();
    assert_eq!(replay.stats.evaluated, 0, "off-grid replay must be free from the warm cache");
    assert_eq!(replay.stats.cache_hits, replay.stats.requested);
    assert_eq!(warm.cache().len(), cached, "a replay must not grow the cache");
    assert_eq!(first.evaluations.len(), replay.evaluations.len());
    for (a, b) in first.evaluations.iter().zip(&replay.evaluations) {
        assert_eq!(a.point, b.point);
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
    }
}

/// The ISSUE-5 determinism contract: the batched/parallel evaluation path
/// must be bit-identical to the serial path per seed — same evaluations in
/// the same order (latency bits included), same budget accounting, same
/// frontiers. `Sweeper::with_parallelism(false)` is the serial reference;
/// the default sweeper fans batches and annealing chains across all cores.
#[test]
fn parallel_runs_are_bit_identical_to_serial_per_seed() {
    type StrategyMaker = Box<dyn Fn() -> Box<dyn SearchStrategy>>;
    let space = fig12_space();
    let multi = multi_group_space();
    let configs: Vec<(&str, StrategyMaker)> = vec![
        ("random", Box::new(|| Box::new(RandomSearch::new(7)))),
        ("random+screen", Box::new(|| Box::new(RandomSearch::new(7).with_screening(true)))),
        ("genetic", Box::new(|| Box::new(GeneticSearch::new(7)))),
        ("genetic+screen", Box::new(|| Box::new(GeneticSearch::new(7).with_screening(true)))),
        (
            "genetic+continuous",
            Box::new(|| Box::new(GeneticSearch::new(7).with_snap_policy(SnapPolicy::Continuous))),
        ),
        ("annealing", Box::new(|| Box::new(SimulatedAnnealing::new(7)))),
        (
            "annealing+continuous+clockbw",
            Box::new(|| {
                Box::new(
                    SimulatedAnnealing::new(7)
                        .with_snap_policy(SnapPolicy::Continuous)
                        .with_clock_bw_relaxation(true),
                )
            }),
        ),
    ];
    for space in [&space, &multi] {
        for (name, make) in &configs {
            let serial_sweeper = Sweeper::new(ModelParams::default()).with_parallelism(false);
            let parallel_sweeper = Sweeper::new(ModelParams::default());
            let budget = SearchBudget::evaluations(40);
            let serial = make().search(&serial_sweeper, space, budget);
            let parallel = make().search(&parallel_sweeper, space, budget);

            assert_eq!(serial.stats.requested, parallel.stats.requested, "{name}: budget");
            assert_eq!(serial.stats.evaluated, parallel.stats.evaluated, "{name}: evaluated");
            assert_eq!(serial.stats.screened, parallel.stats.screened, "{name}: screened");
            assert_eq!(serial.stats.revisits, parallel.stats.revisits, "{name}: revisits");
            assert_eq!(serial.evaluations.len(), parallel.evaluations.len(), "{name}: length");
            for (a, b) in serial.evaluations.iter().zip(&parallel.evaluations) {
                assert_eq!(a.point, b.point, "{name}: evaluation order diverged");
                assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits(), "{name}: latency bits");
                assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits(), "{name}: energy bits");
            }
            assert_eq!(serial.frontiers.len(), parallel.frontiers.len(), "{name}: groups");
            for (ga, gb) in serial.frontiers.iter().zip(&parallel.frontiers) {
                assert_eq!(ga.model, gb.model, "{name}: group order");
                assert_eq!(ga.seq_len, gb.seq_len, "{name}: group order");
                assert_eq!(ga.frontier.len(), gb.frontier.len(), "{name}: frontier size");
            }
        }
    }
}

/// Without screening, the random searcher's batch size is invisible in
/// results (samples are drawn, charged, and recorded in draw order for
/// any batch size) — and parallel ≡ serial holds at every batch size.
/// With screening, batch size is a documented configuration knob.
#[test]
fn random_batch_size_is_invisible_without_screening() {
    let space = fig12_space();
    let budget = SearchBudget::evaluations(40);
    let reference = RandomSearch::new(7).with_batch(1).search(
        &Sweeper::new(ModelParams::default()).with_parallelism(false),
        &space,
        budget,
    );
    for batch in [2usize, 5, 16, 64] {
        for parallel in [false, true] {
            let sweeper = Sweeper::new(ModelParams::default()).with_parallelism(parallel);
            let run = RandomSearch::new(7).with_batch(batch).search(&sweeper, &space, budget);
            assert_eq!(run.evaluations.len(), reference.evaluations.len(), "batch {batch}");
            for (a, b) in reference.evaluations.iter().zip(&run.evaluations) {
                assert_eq!(a.point, b.point, "batch {batch} parallel {parallel}");
                assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
            }
            assert_eq!(run.stats.requested, reference.stats.requested);
        }
    }
}

/// The batched genetic searcher must actually batch: at least one
/// multi-point flush per generation (seed generation included), visible
/// through the new batch counters.
#[test]
fn genetic_search_issues_multi_point_batches_every_generation() {
    let space = fig12_space();
    let sweeper = Sweeper::new(ModelParams::default());
    let outcome = GeneticSearch::new(1).search(&sweeper, &space, SearchBudget::evaluations(60));
    // 60 evaluations at population 16 is a seed batch plus ≥ 2 breeding
    // generations; every one must have flushed as a single multi-point
    // batch.
    assert!(
        outcome.stats.multi_point_batches >= 3,
        "only {} multi-point batches across the run",
        outcome.stats.multi_point_batches
    );
    assert!(outcome.stats.batches >= outcome.stats.multi_point_batches);
}

/// FNV-1a over the bytes a value's `Hash` impl writes.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of a run's evaluation order: the `PointKey` of every charged
/// point, in request order.
fn evaluation_order_digest(outcome: &SearchOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for e in &outcome.evaluations {
        PointKey::of(&e.point).hash(&mut h);
    }
    h.finish()
}

/// The serving co-design's policy × fleet space: the Fig 12 chips × six
/// scheduler policies × three fleet shapes = 108 points.
fn policy_fleet_space() -> DesignSpace {
    DesignSpace::new()
        .with_workloads([TransformerConfig::bert()])
        .with_seq_lens([1 << 18])
        .with_policies([
            SchedulerPolicy::unbounded(),
            SchedulerPolicy::chunked(256),
            SchedulerPolicy::chunked(512),
            SchedulerPolicy::chunked(512).with_queue_order(QueueOrder::ShortestPromptFirst),
            SchedulerPolicy::unbounded().with_queue_order(QueueOrder::ShortestPromptFirst),
            SchedulerPolicy::chunked(512).with_waiting_served_ratio(1.5),
        ])
        .with_fleets([FleetSpec::single(), FleetSpec::replicated(2), FleetSpec::replicated(4)])
}

/// Budget-limited genetic runs that never stall keep their seeded
/// trajectories: the digests and revisit counts below were recorded
/// before stalled generations began injecting unseen immigrants, and
/// the selection rule must not move them.
#[test]
fn genetic_trajectories_without_a_stall_are_pinned() {
    let space = policy_fleet_space();
    assert_eq!(space.len(), 108);
    let cases = [
        (&space, 7, 45, 0xe98e_5ab3_a458_8144, 2),
        (&space, 11, 45, 0x27c4_554e_48c8_1776, 3),
        (&fig12_space(), 7, 90, 0x4ce4_f820_851c_275d, 50),
    ];
    for (space, seed, budget, digest, revisits) in cases {
        let sweeper = Sweeper::new(ModelParams::default());
        let outcome =
            GeneticSearch::new(seed).search(&sweeper, space, SearchBudget::evaluations(budget));
        assert_eq!(outcome.stats.requested, budget);
        assert_eq!(
            evaluation_order_digest(&outcome),
            digest,
            "seed {seed}, budget {budget}: the evaluation order drifted"
        );
        assert_eq!(outcome.stats.revisits, revisits, "seed {seed}, budget {budget}");
    }
}
