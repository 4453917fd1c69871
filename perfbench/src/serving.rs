//! `serve_overload`: long seed-generated traces replayed on several
//! serving setups of the dim-256 FuseMax BERT chip, service-time table
//! builds included.

use crate::checks::{Checks, Digest};
use crate::spans::{SpanTotals, Tracer};
use crate::{attribute, bert_chip, prompt_lengths, ModelCost, OpOutcome, Scale};
use fusemax_dse::DesignPoint;
use fusemax_model::ModelParams;
use fusemax_serve::{
    Arrivals, FaultSpec, Fleet, FleetReport, FleetSpec, LengthMix, QueueOrder, RouterPolicy,
    SchedulerPolicy, ServeReport, ServeSim, ServiceTimeTable, Trace, TrafficSpec,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// One serving setup replayed per operation.
#[derive(Debug, Clone)]
enum Setup {
    /// One chip under `policy`: table build, then replay through it.
    Single { label: &'static str, policy: SchedulerPolicy },
    /// A fleet (which builds its own table), under the trace's seeded
    /// fail-stop when `faulted`.
    Fleet { span: &'static str, spec: FleetSpec, faulted: bool },
}

/// One trace and the seeded fault timeline the faulted setup replays it
/// under.
#[derive(Debug)]
struct Case {
    trace: Trace,
    faults: FaultSpec,
}

/// The serving workload's inputs. Operation `i` replays case
/// `i % cases.len()`: a run's median then spans several traces, so it
/// moves far less between seeds than one trace's cost does.
#[derive(Debug)]
pub struct Inputs {
    point: DesignPoint,
    cases: Vec<Case>,
    setups: Vec<Setup>,
}

enum Outcome {
    Single(&'static str, ServeReport, ServiceTimeTable),
    Fleet(&'static str, FleetReport, bool),
}

/// `count` traces of `requests` 512/4096-token (3:1) prompts with 8/32
/// output tokens at `rate_per_s`, each with a seeded single fail-stop of
/// one of `replicas` chips and a 0.8 shed watermark.
fn cases(seed: u64, count: u64, rate_per_s: f64, requests: usize, replicas: usize) -> Vec<Case> {
    (0..count)
        .map(|k| {
            let seed = seed.wrapping_mul(count).wrapping_add(k);
            let trace = TrafficSpec {
                arrivals: Arrivals::Poisson { rate_per_s },
                prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
                output_mix: LengthMix::uniform([8, 32]),
                requests,
            }
            .generate(seed);
            let faults =
                FaultSpec::seeded(seed, replicas, trace.last_arrival_s()).with_shed_watermark(0.8);
            Case { trace, faults }
        })
        .collect()
}

impl Inputs {
    /// Traces of 8k requests at 600 req/s, far above one chip's capacity,
    /// so the waiting queue grows into the thousands: FCFS and
    /// shortest-prompt-first ordering, whole-prompt and chunked(512); the
    /// same traffic on a 4-replica least-loaded fleet and a 1:3
    /// prefill/decode fleet; and a 2-replica fleet that sheds load under a
    /// seeded fail-stop.
    pub fn overload(seed: u64, scale: Scale) -> Self {
        let (count, requests) = match scale {
            Scale::Full => (16, 8_000),
            Scale::Tiny => (2, 40),
        };
        let spf = QueueOrder::ShortestPromptFirst;
        let setups = vec![
            Setup::Single { label: "fcfs", policy: SchedulerPolicy::unbounded() },
            Setup::Single {
                label: "spf",
                policy: SchedulerPolicy::unbounded().with_queue_order(spf),
            },
            Setup::Single { label: "fcfs chunk512", policy: SchedulerPolicy::chunked(512) },
            Setup::Single {
                label: "spf chunk512",
                policy: SchedulerPolicy::chunked(512).with_queue_order(spf),
            },
            Setup::Fleet {
                span: "serve.fleet.replicated",
                spec: FleetSpec::replicated(4).with_router(RouterPolicy::LeastLoaded),
                faulted: false,
            },
            Setup::Fleet {
                span: "serve.fleet.disaggregated",
                spec: FleetSpec::disaggregated(1, 3),
                faulted: false,
            },
            Setup::Fleet { span: "serve.fault", spec: FleetSpec::replicated(2), faulted: true },
        ];
        Inputs { point: bert_chip(256), cases: cases(seed, count, 600.0, requests, 2), setups }
    }

    /// Replays operation `op`'s trace on every setup.
    pub fn run(&self, op: usize, tracer: &Tracer) -> OpOutcome {
        let params = ModelParams::default();
        let Case { trace, faults } = &self.cases[op % self.cases.len()];
        let sim = |policy: SchedulerPolicy| {
            ServeSim::builder_for_point(&self.point, &params).policy(policy).build()
        };
        let start = Instant::now();
        let outcomes: Vec<Outcome> = tracer.span("op", || {
            self.setups
                .iter()
                .map(|setup| match setup {
                    Setup::Single { label, policy } => {
                        let sim = sim(*policy);
                        let table = tracer.span("serve.table", || sim.service_times(trace));
                        let report = tracer.span("serve.sim", || sim.run_with(&table, trace));
                        Outcome::Single(label, report, table)
                    }
                    Setup::Fleet { span, spec, faulted } => {
                        let faults = if *faulted { faults.clone() } else { FaultSpec::none() };
                        let fleet = Fleet::new(*spec, sim(SchedulerPolicy::unbounded()))
                            .with_faults(faults);
                        let report = tracer.span(span, || fleet.run_detailed(trace));
                        Outcome::Fleet(span, report, *faulted)
                    }
                })
                .collect()
        });
        let host = start.elapsed();

        let requests = trace.len();
        let mut checks = Checks::default();
        let mut digest = Digest::default();
        let mut sim_requests = 0;
        for outcome in &outcomes {
            match outcome {
                Outcome::Single(label, report, table) => {
                    checks.fault_free(label, report, requests);
                    checks.table(label, table);
                    digest.report(report);
                    sim_requests += report.completed;
                }
                Outcome::Fleet(label, fleet, faulted) => {
                    checks.fleet(label, fleet, requests, *faulted);
                    if !faulted {
                        checks.fault_free(label, &fleet.merged, requests);
                    }
                    digest.report(&fleet.merged);
                    fleet.replicas.iter().for_each(|r| digest.report(r));
                    digest.u64(fleet.faults.retries as u64);
                    fleet.shed_ids.iter().for_each(|&id| digest.u64(id as u64));
                    digest.f64(fleet.kv_transfer_s);
                    sim_requests += fleet.merged.completed;
                }
            }
        }

        let mut layers = BTreeMap::new();
        if tracer.enabled() {
            self.trace_layers(&mut layers, op, tracer, trace, &outcomes);
        }
        OpOutcome { host, checks, digest: digest.value(), sim_requests, layers }
    }

    /// Per-layer metrics of one traced replay. Fleets build their table
    /// inside `run_detailed`; its model calls are counted by building the
    /// same whole-prompt table again.
    fn trace_layers(
        &self,
        layers: &mut BTreeMap<&'static str, f64>,
        op: usize,
        tracer: &Tracer,
        trace: &Trace,
        outcomes: &[Outcome],
    ) {
        let params = ModelParams::default();
        let totals = SpanTotals::of(&tracer.spans(), op);
        let fleet_table_calls = ServeSim::builder_for_point(&self.point, &params)
            .build()
            .service_times(trace)
            .model_evaluations();
        let (mut model_calls, mut misses, mut single_iterations, mut iterations) = (0, 0, 0, 0);
        let mut singles = 0usize;
        for outcome in outcomes {
            match outcome {
                Outcome::Single(_, report, table) => {
                    singles += 1;
                    model_calls += table.model_evaluations();
                    misses += table.misses();
                    single_iterations += report.iterations;
                    iterations += report.iterations;
                }
                Outcome::Fleet(_, fleet, faulted) => {
                    model_calls += fleet_table_calls;
                    iterations += fleet.merged.iterations;
                    if *faulted {
                        layers.insert("serve.fault.retries", fleet.faults.retries as f64);
                        layers.insert("serve.fault.sheds", fleet.faults.shed as f64);
                    }
                }
            }
        }
        layers.insert("serve.table.builds", outcomes.len() as f64);
        layers.insert(
            "serve.table.ms_per_build",
            totals.total("serve.table") / singles.max(1) as f64,
        );
        layers.insert(
            "serve.table.model_calls_per_build",
            model_calls as f64 / outcomes.len() as f64,
        );
        layers.insert("serve.table.misses", misses as f64);
        layers.insert("serve.sim.iterations", iterations as f64);
        layers.insert(
            "serve.sim.ns_per_iteration",
            totals.total("serve.sim") * 1e6 / single_iterations.max(1) as f64,
        );
        for name in ["serve.fleet.replicated", "serve.fleet.disaggregated", "serve.fault"] {
            layers.insert(span_metric(name), totals.total(name));
        }

        let lens = prompt_lengths(trace);
        let model_ms =
            ModelCost::measure(&self.point, &lens, true).record(layers, model_calls as f64);
        attribute(layers, &totals, &[("serve", "model", model_ms)]);
    }
}

fn span_metric(span: &str) -> &'static str {
    match span {
        "serve.fleet.replicated" => "serve.fleet.replicated_ms",
        "serve.fleet.disaggregated" => "serve.fleet.disaggregated_ms",
        _ => "serve.fault.ms",
    }
}
