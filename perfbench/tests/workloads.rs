//! The benchmark's own checks: every workload runs a tiny operation
//! cleanly, traced and untraced alike, and a tampered result counts as a
//! failed operation.

use fusemax_dse::DesignSpace;
use fusemax_model::ModelParams;
use fusemax_serve::{Arrivals, FaultSpec, Fleet, FleetSpec, LengthMix, ServeSim, TrafficSpec};
use fusemax_workloads::TransformerConfig;
use perfbench::checks::Checks;
use perfbench::spans::Tracer;
use perfbench::{run_op, setup, OpOutcome, Scale, Tally, Workload, PER_LAYER};

#[test]
fn every_workload_runs_a_tiny_operation_without_failures() {
    for workload in Workload::ALL {
        let inputs = setup(workload, 3, Scale::Tiny);
        let untraced = run_op(&inputs, 0, &Tracer::off());
        let traced = run_op(&inputs, 0, &Tracer::on());
        assert!(untraced.checks.passed(), "{}: {:?}", workload.name(), untraced.checks.failures);
        let tally = Tally::of(&[untraced], std::slice::from_ref(&traced));
        assert_eq!(tally, Tally { attempted: 2, failed: 0, digests_match: true }, "{workload:?}");
        assert!(traced.sim_requests > 0, "{}: nothing simulated", workload.name());
        for key in traced.layers.keys() {
            assert!(PER_LAYER.iter().any(|(name, _)| name == key), "undeclared metric {key}");
        }
        assert!(traced.layers.contains_key("unattributed_ms"), "{}", workload.name());
    }
}

#[test]
fn the_same_seed_gives_the_same_digest() {
    let off = Tracer::off();
    let a = run_op(&setup(Workload::ServeOverload, 9, Scale::Tiny), 0, &off);
    let b = run_op(&setup(Workload::ServeOverload, 9, Scale::Tiny), 0, &off);
    let c = run_op(&setup(Workload::ServeOverload, 10, Scale::Tiny), 0, &off);
    assert_eq!(a.digest, b.digest);
    assert_ne!(a.digest, c.digest);
}

fn trace(requests: usize) -> fusemax_serve::Trace {
    TrafficSpec {
        arrivals: Arrivals::Poisson { rate_per_s: 400.0 },
        prompt_mix: LengthMix::new([(512, 3.0), (4096, 1.0)]),
        output_mix: LengthMix::uniform([8, 32]),
        requests,
    }
    .generate(5)
}

fn failed_ops(checks: Checks) -> usize {
    Tally::of(&[OpOutcome { checks, ..OpOutcome::default() }], &[]).failed
}

#[test]
fn a_report_that_drops_a_request_is_a_failed_operation() {
    let trace = trace(30);
    let point = DesignSpace::new().with_workloads([TransformerConfig::bert()]).points().remove(0);
    let mut report = ServeSim::for_point(&point, &ModelParams::default()).run(&trace);

    let mut clean = Checks::default();
    clean.fault_free("replay", &report, trace.len());
    assert_eq!(failed_ops(clean), 0);

    report.completed -= 1;
    report.e2e.samples -= 1;
    let mut tampered = Checks::default();
    tampered.fault_free("replay", &report, trace.len());
    assert_eq!(failed_ops(tampered), 1);
}

#[test]
fn a_fleet_report_that_loses_a_shed_request_is_a_failed_operation() {
    let trace = trace(200);
    let point = DesignSpace::new().with_workloads([TransformerConfig::bert()]).points().remove(0);
    let faults =
        FaultSpec::single_failure(trace.last_arrival_s() / 2.0, 0).with_shed_watermark(0.9);
    let mut fleet =
        Fleet::new(FleetSpec::replicated(2), ServeSim::for_point(&point, &ModelParams::default()))
            .with_faults(faults)
            .run_detailed(&trace);
    assert!(!fleet.shed_ids.is_empty(), "the scenario must shed");

    let mut clean = Checks::default();
    clean.fleet("fleet", &fleet, trace.len(), true);
    assert_eq!(failed_ops(clean), 0);

    fleet.shed_ids.pop();
    let mut tampered = Checks::default();
    tampered.fleet("fleet", &fleet, trace.len(), true);
    assert_eq!(failed_ops(tampered), 1);
}

#[test]
fn quantiles_out_of_order_fail_the_check() {
    let trace = trace(30);
    let point = DesignSpace::new().with_workloads([TransformerConfig::bert()]).points().remove(0);
    let mut report = ServeSim::for_point(&point, &ModelParams::default()).run(&trace);
    report.ttft.p95 = report.ttft.p99 * 2.0;
    let mut checks = Checks::default();
    checks.quantiles("replay", &report);
    assert_eq!(failed_ops(checks), 1);
}
