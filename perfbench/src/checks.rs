//! Per-operation correctness checks and the simulated-statistics digest.

use fusemax_dse::search::SearchOutcome;
use fusemax_dse::{MeritScore, PointKey};
use fusemax_serve::{FleetReport, LatencyStats, ServeReport, ServiceTimeTable};
use std::collections::HashSet;

/// Failed checks of one operation; the operation passes when empty.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records `what()` as a failure unless `ok`.
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Nearest-rank quantiles are ordered: p50 ≤ p95 ≤ p99 ≤ max.
    pub fn quantiles(&mut self, label: &str, report: &ServeReport) {
        for (name, s) in [("ttft", &report.ttft), ("tpot", &report.tpot), ("e2e", &report.e2e)] {
            self.ensure(ordered(s), || format!("{label}: {name} quantiles out of order: {s}"));
        }
    }

    /// A fault-free replay completes every one of the trace's `requests`.
    pub fn fault_free(&mut self, label: &str, report: &ServeReport, requests: usize) {
        self.ensure(report.completed == requests && report.e2e.samples == requests, || {
            format!("{label}: completed {} of {requests} requests", report.completed)
        });
        self.ensure(report.ttft.samples == requests, || {
            format!("{label}: {} TTFT samples for {requests} requests", report.ttft.samples)
        });
        self.quantiles(label, report);
    }

    /// A fleet replay completes or sheds each of the trace's `requests`
    /// exactly once (a fault-free fleet sheds nothing).
    pub fn fleet(&mut self, label: &str, fleet: &FleetReport, requests: usize, faulted: bool) {
        let mut seen = HashSet::new();
        let ids = fleet.attributions.iter().map(|a| a.req).chain(fleet.shed_ids.iter().copied());
        let unique = ids.clone().all(|id| id < requests && seen.insert(id));
        self.ensure(unique && seen.len() == requests, || {
            format!(
                "{label}: {} distinct completed-or-shed ids for {requests} requests",
                seen.len()
            )
        });
        self.ensure(fleet.merged.completed + fleet.shed_ids.len() == requests, || {
            format!(
                "{label}: completed {} + shed {} != {requests}",
                fleet.merged.completed,
                fleet.shed_ids.len()
            )
        });
        self.ensure(faulted || fleet.shed_ids.is_empty(), || {
            format!("{label}: fault-free fleet shed")
        });
        self.quantiles(label, &fleet.merged);
    }

    /// A replay through a precomputed table never fell back to the model.
    pub fn table(&mut self, label: &str, table: &ServiceTimeTable) {
        self.ensure(table.misses() == 0, || format!("{label}: {} table misses", table.misses()));
    }

    /// The search charged exactly `min(budget, space_len)` distinct
    /// evaluations, and its `objective_best` scores at least as high as
    /// the best merit the objective handed out (`best_scored`).
    pub fn search(
        &mut self,
        label: &str,
        outcome: &SearchOutcome,
        budget: usize,
        space_len: usize,
        best_scored: Option<MeritScore>,
    ) {
        let want = budget.min(space_len);
        let distinct: HashSet<PointKey> =
            outcome.evaluations.iter().map(|e| PointKey::of(&e.point)).collect();
        self.ensure(outcome.stats.requested == want && distinct.len() == want, || {
            format!(
                "{label}: charged {} ({} distinct) evaluations, want {want}",
                outcome.stats.requested,
                distinct.len()
            )
        });
        match &outcome.objective_best {
            None => self.failures.push(format!("{label}: no objective_best")),
            Some((_, best)) => self.ensure(!best_scored.is_some_and(|s| s.beats(best)), || {
                format!("{label}: objective_best {best:?} is not the highest merit scored")
            }),
        }
    }
}

fn ordered(s: &LatencyStats) -> bool {
    s.samples == 0 || (s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max)
}

/// FNV-1a over every simulated statistic an operation produces, so a
/// host-side speed-up can show the simulated numbers did not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in one word.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds in a string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        s.bytes().for_each(|b| self.u64(b as u64));
    }

    /// Folds in every number of a serving report.
    pub fn report(&mut self, r: &ServeReport) {
        for v in [r.completed, r.output_tokens, r.iterations, r.peak_batch] {
            self.u64(v as u64);
        }
        for v in [r.makespan_s, r.busy_s, r.goodput_rps, r.token_throughput_per_s, r.utilization] {
            self.f64(v);
        }
        self.u64(r.peak_resident_bytes);
        self.u64(r.buffer_bytes);
        for s in [&r.ttft, &r.tpot, &r.e2e] {
            self.u64(s.samples as u64);
            for v in [s.mean, s.p50, s.p95, s.p99, s.max] {
                self.f64(v);
            }
        }
    }

    /// The hash value.
    pub fn value(&self) -> u64 {
        self.0
    }
}
