//! Parallel-evaluation throughput and parity: the ISSUE-5 hot path.
//!
//! Three comparisons, each timed serial-vs-parallel **and** gated on
//! correctness parity (identical result hashes — the bench aborts on any
//! mismatch, which is what the CI smoke step relies on):
//!
//! 1. genetic generations evaluated one point at a time (serial sweeper)
//!    vs as multi-point batches on all cores;
//! 2. annealing chains run one after another vs on parallel workers
//!    (pre-split RNG streams, so the outcomes are bit-identical);
//! 3. serve replays paying a fresh `ServiceTimeTable` per run (cold) vs
//!    replaying through one prebuilt table (warm), plus serial vs
//!    parallel `ServeObjective` ranking.
//!
//! Writes `target/bench_summary.json` (workspace root) with the measured
//! times and parity verdicts — the first `BENCH_*` trajectory artifact.

use criterion::Criterion;
use fusemax_arch::ArchConfig;
use fusemax_dse::search::{
    GeneticSearch, SearchBudget, SearchOutcome, SearchStrategy, SimulatedAnnealing,
};
use fusemax_dse::{DesignSpace, Objectives, Sweeper};
use fusemax_model::mapper::mapping_evaluations;
use fusemax_model::{layer_gemms, ConfigKind, ModelParams};
use fusemax_serve::{
    Arrivals, FaultSpec, Fleet, FleetSpec, LengthMix, ServeObjective, ServeSim, Sla, Trace,
    TrafficSpec,
};
use fusemax_telemetry::{Metrics, SearchBudgetAttribution, VecSink};
use fusemax_workloads::TransformerConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// FNV-1a over a stream of u64s — enough to certify two result streams
/// identical.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Order-sensitive hash of a guided run: every evaluation's identity and
/// objective bits, then the frontier sizes.
fn outcome_hash(outcome: &SearchOutcome) -> u64 {
    let mut h = Fnv::new();
    h.push(outcome.stats.requested as u64);
    for e in &outcome.evaluations {
        h.push(e.point.array_dim as u64);
        h.push(e.point.arch.global_buffer_bytes);
        h.push(e.point.seq_len as u64);
        for o in e.objectives() {
            h.push(o.to_bits());
        }
    }
    for g in &outcome.frontiers {
        h.push(g.frontier.len() as u64);
    }
    h.0
}

/// Hash of a serve report (exact quantile bits included).
fn report_hash(report: &fusemax_serve::ServeReport) -> u64 {
    let mut h = Fnv::new();
    h.push(report.completed as u64);
    h.push(report.iterations as u64);
    h.push(report.makespan_s.to_bits());
    h.push(report.goodput_rps.to_bits());
    for stats in [&report.ttft, &report.tpot, &report.e2e] {
        h.push(stats.p50.to_bits());
        h.push(stats.p95.to_bits());
        h.push(stats.p99.to_bits());
    }
    h.0
}

fn genetic_space() -> DesignSpace {
    DesignSpace::new()
        .with_kinds(ConfigKind::all())
        .with_workloads([TransformerConfig::bert()])
        .with_frequencies_hz([None, Some(470e6)])
        .with_buffer_scales([0.5, 1.0, 2.0])
}

fn annealing_space() -> DesignSpace {
    DesignSpace::new()
        .with_kinds(ConfigKind::all())
        .with_workloads([TransformerConfig::bert(), TransformerConfig::xlm()])
        .with_seq_lens([1 << 14, 1 << 18])
}

fn serve_trace(requests: usize) -> Trace {
    TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: 150.0 },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([8, 32]),
        requests,
    }
    .generate(7)
}

/// One timed closure call (fresh state per call, so caches can't leak
/// between the serial and parallel arms).
fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

struct Comparison {
    name: &'static str,
    serial: Duration,
    parallel: Duration,
    parity: bool,
}

fn run_genetic() -> Comparison {
    let space = genetic_space();
    let budget = SearchBudget::evaluations(90);
    let (serial_outcome, serial) = time(|| {
        let sweeper = Sweeper::new(ModelParams::default()).with_parallelism(false);
        GeneticSearch::new(7).search(&sweeper, &space, budget)
    });
    let (parallel_outcome, parallel) = time(|| {
        let sweeper = Sweeper::new(ModelParams::default());
        GeneticSearch::new(7).search(&sweeper, &space, budget)
    });
    Comparison {
        name: "genetic_generation_batches",
        serial,
        parallel,
        parity: outcome_hash(&serial_outcome) == outcome_hash(&parallel_outcome),
    }
}

fn run_annealing() -> Comparison {
    let space = annealing_space();
    let budget = SearchBudget::evaluations(80);
    let (serial_outcome, serial) = time(|| {
        let sweeper = Sweeper::new(ModelParams::default()).with_parallelism(false);
        SimulatedAnnealing::new(7).search(&sweeper, &space, budget)
    });
    let (parallel_outcome, parallel) = time(|| {
        let sweeper = Sweeper::new(ModelParams::default());
        SimulatedAnnealing::new(7).search(&sweeper, &space, budget)
    });
    Comparison {
        name: "annealing_parallel_chains",
        serial,
        parallel,
        parity: outcome_hash(&serial_outcome) == outcome_hash(&parallel_outcome),
    }
}

fn run_serve_table() -> Comparison {
    let params = ModelParams::default();
    let trace = serve_trace(120);
    let space = DesignSpace::new().with_workloads([TransformerConfig::bert()]);
    let point = space.points().remove(4); // 256x256, mid-family
    let sim = ServeSim::for_point(&point, &params);
    let replays = 8;
    let (cold_hash, cold) = time(|| {
        let mut h = Fnv::new();
        for _ in 0..replays {
            h.push(report_hash(&sim.run(&trace)));
        }
        h.0
    });
    let (warm_hash, warm) = time(|| {
        let table = sim.service_times(&trace);
        let mut h = Fnv::new();
        for _ in 0..replays {
            h.push(report_hash(&sim.run_with(&table, &trace)));
        }
        assert_eq!(table.misses(), 0, "warm replay must not fall back to the model");
        h.0
    });
    Comparison {
        name: "serve_table_replay_x8",
        serial: cold,
        parallel: warm,
        parity: cold_hash == warm_hash,
    }
}

fn run_serve_rank() -> Comparison {
    let params = ModelParams::default();
    let space = DesignSpace::new().with_workloads([TransformerConfig::bert()]);
    let outcome = Sweeper::new(params.clone()).sweep(&space);
    let objective = ServeObjective::new(serve_trace(60), Sla::p99_ttft(0.25));
    let rank_hash =
        |ranked: &[(std::sync::Arc<fusemax_dse::Evaluation>, fusemax_serve::ServeScore)]| {
            let mut h = Fnv::new();
            for (e, s) in ranked {
                h.push(e.point.array_dim as u64);
                h.push(report_hash(&s.report));
            }
            h.0
        };
    let serial_objective = objective.clone().with_parallelism(false);
    let (serial_hash, serial) =
        time(|| rank_hash(&serial_objective.rank(&outcome.evaluations, &params)));
    let (parallel_hash, parallel) =
        time(|| rank_hash(&objective.rank(&outcome.evaluations, &params)));
    Comparison {
        name: "serve_objective_rank_fig12",
        serial,
        parallel,
        parity: serial_hash == parallel_hash,
    }
}

/// Replays the genetic arm (cold then warm-cache) and one serve replay
/// with telemetry attached and condenses the event streams into the
/// search-efficiency numbers the `BENCH_*` trajectory tracks — cache hit
/// ratio and batch shape, not just wall time.
fn telemetry_json() -> String {
    let space = genetic_space();
    let (recorder, sink) = VecSink::recorder();
    let sweeper = Sweeper::new(ModelParams::default()).with_recorder(recorder);
    let budget = SearchBudget::evaluations(90);
    GeneticSearch::new(7).search(&sweeper, &space, budget);
    // A second seed over the warm cache, so the hit ratio measures reuse.
    GeneticSearch::new(9).search(&sweeper, &space, budget);
    // A budget that covers the whole space: once breeding only finds
    // known points, each stalled generation must inject an unseen
    // immigrant, so the revisit count stays a small multiple of the space
    // size instead of spinning until chance finds the last points. Its own
    // sweeper and no recorder, so the event-derived keys above stay put.
    let saturated = GeneticSearch::new(7).search(
        &Sweeper::new(ModelParams::default()),
        &space,
        SearchBudget::evaluations(space.len()),
    );

    // Tilings the GEMM mapper evaluates for one BERT layer at 16K tokens:
    // one per `(K1, M1)` pair, so a return to enumerating every `N1` as
    // well fails the gate.
    let cloud = ArchConfig::fusemax_cloud();
    let mapper_evaluations: usize = layer_gemms(&TransformerConfig::bert(), 1 << 14)
        .iter()
        .map(|gemm| mapping_evaluations(gemm, &cloud))
        .sum();

    let trace = serve_trace(120);
    let point = DesignSpace::new().with_workloads([TransformerConfig::bert()]).points().remove(4);
    let (serve_recorder, serve_sink) = VecSink::recorder();
    ServeSim::builder_for_point(&point, &ModelParams::default())
        .recorder(serve_recorder)
        .build()
        .run(&trace);

    // A seeded fault-injected 4-replica fleet run: two mid-trace
    // fail-stops (one recovers) under a load-shed watermark, so the
    // retry and shed counters are exercised. Both are event-derived and
    // seeded — deterministic keys the baseline diff gates on.
    let fleet_trace = TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: 2000.0 },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([8, 32]),
        requests: 80,
    }
    .generate(11);
    let horizon_s = fleet_trace.last_arrival_s();
    let faults = FaultSpec::none()
        .down(0.25 * horizon_s, 1)
        .down(0.45 * horizon_s, 2)
        .up(0.7 * horizon_s, 2)
        .with_shed_watermark(0.6);
    let (fleet_recorder, fleet_sink) = VecSink::recorder();
    Fleet::new(FleetSpec::replicated(4), ServeSim::for_point(&point, &ModelParams::default()))
        .with_recorder(fleet_recorder)
        .with_faults(faults)
        .run_detailed(&fleet_trace);

    let mut events = sink.events();
    events.extend(serve_sink.events());
    events.extend(fleet_sink.events());
    let metrics = Metrics::from_events(&events);
    // The budget-attribution block: where the two genetic runs' staged
    // candidates went (screen / cache / full model). Event-derived and
    // seeded, so every field is deterministic — exactly what the
    // baseline diff (`examples/bench_diff.rs`) gates on.
    let attribution = SearchBudgetAttribution::from_events(&events);
    format!(
        concat!(
            "{{\"search_cache_hit_ratio\":{:.4},\"search_flush_batch_mean\":{:.3},",
            "\"serve_batch_mean\":{:.3},\"serve_retries\":{},\"serve_sheds\":{},",
            "\"search_saturated_revisits\":{},\"mapper_evaluations\":{},\"events\":{},",
            "\"attribution\":{}}}"
        ),
        metrics.gauge("search.cache.hit_ratio").unwrap_or(0.0),
        metrics.histogram("search.flush_batch").map_or(0.0, |h| h.mean()),
        metrics.gauge("serve.batch_mean").unwrap_or(0.0),
        metrics.counter("serve.retries"),
        metrics.counter("serve.sheds"),
        saturated.stats.revisits,
        mapper_evaluations,
        events.len(),
        attribution.json(),
    )
}

/// Serializes the comparisons as the `target/bench_summary.json`
/// trajectory artifact (dependency-free, stable field order).
fn write_summary(comparisons: &[Comparison]) {
    let entries: Vec<String> = comparisons
        .iter()
        .map(|c| {
            format!(
                concat!(
                    "{{\"bench\":\"{}\",\"serial_ns\":{},\"parallel_ns\":{},",
                    "\"speedup\":{:.3},\"parity\":{}}}"
                ),
                c.name,
                c.serial.as_nanos(),
                c.parallel.as_nanos(),
                c.serial.as_secs_f64() / c.parallel.as_secs_f64().max(1e-12),
                c.parity,
            )
        })
        .collect();
    let json = format!(
        "{{\"threads\":{},\"comparisons\":[{}],\"telemetry\":{}}}\n",
        rayon::current_num_threads(),
        entries.join(","),
        telemetry_json(),
    );
    // Bench binaries run with the package directory as CWD; the summary
    // belongs in the workspace-root target/ where CI uploads it.
    let target = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _ = std::fs::create_dir_all(&target);
    let path = target.join("bench_summary.json");
    std::fs::write(&path, json).expect("write bench summary");
    println!("[summary] wrote {}", path.display());
}

fn criterion_groups(c: &mut Criterion) {
    // Conventional criterion timings for the same hot paths (the summary
    // above is single-shot; these carry the statistics).
    let mut group = c.benchmark_group("par_eval");
    group.measurement_time(Duration::from_secs(3)).sample_size(10);
    let space = genetic_space();
    group.bench_function("genetic_serial", |b| {
        b.iter(|| {
            let sweeper = Sweeper::new(ModelParams::default()).with_parallelism(false);
            black_box(GeneticSearch::new(7).search(&sweeper, &space, SearchBudget::evaluations(45)))
        })
    });
    group.bench_function("genetic_batched", |b| {
        b.iter(|| {
            let sweeper = Sweeper::new(ModelParams::default());
            black_box(GeneticSearch::new(7).search(&sweeper, &space, SearchBudget::evaluations(45)))
        })
    });
    let trace = serve_trace(120);
    let params = ModelParams::default();
    let point = DesignSpace::new().with_workloads([TransformerConfig::bert()]).points().remove(4);
    let sim = ServeSim::for_point(&point, &params);
    let table = sim.service_times(&trace);
    group.bench_function("serve_replay_cold", |b| b.iter(|| black_box(sim.run(&trace))));
    group.bench_function("serve_replay_warm_table", |b| {
        b.iter(|| black_box(sim.run_with(&table, &trace)))
    });
    group.finish();
}

fn all(c: &mut Criterion) {
    fusemax_bench::banner(
        "par_eval",
        "batched/parallel evaluation vs the serial reference (parity-gated)",
    );
    let comparisons = vec![run_genetic(), run_annealing(), run_serve_table(), run_serve_rank()];
    for c in &comparisons {
        println!(
            "[parity] {:<30} serial {:>10.3?}  parallel {:>10.3?}  speedup {:>5.2}x  parity {}",
            c.name,
            c.serial,
            c.parallel,
            c.serial.as_secs_f64() / c.parallel.as_secs_f64().max(1e-12),
            if c.parity { "OK" } else { "MISMATCH" },
        );
    }
    write_summary(&comparisons);
    // The CI gate: any serial/parallel divergence fails the bench run.
    assert!(
        comparisons.iter().all(|c| c.parity),
        "serial and parallel paths disagreed — determinism contract broken"
    );
    criterion_groups(c);
}

criterion::criterion_group!(benches, all);
criterion::criterion_main!(benches);
