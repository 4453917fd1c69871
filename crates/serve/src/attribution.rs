//! Per-request latency attribution and SLA forensics: every recorded
//! TTFT and end-to-end latency decomposed into retry overhead (backoff
//! and lost work after replica failures), queue wait, prefill work,
//! decode-interleave stall, K/V handoff, and decode time — with the
//! decomposition folding **bit-exactly** back to the recorded latency
//! (the same [`fusemax_model::exact_split`] machinery the model-side
//! [`fusemax_model::CostNode`] trees use).
//!
//! The attribution is write-only instrumentation: the engine records the
//! admission clock and charged prefill seconds per request without
//! touching any float the report depends on, so instrumented and
//! uninstrumented replays stay bit-identical.

use fusemax_model::exact_split;

/// The six end-to-end latency buckets, in charge order. The `retry`
/// bucket (first — it is charged before everything else a surviving
/// attempt experiences) holds backoff wait plus lost work from replica
/// failures; it is exactly 0.0 in fault-free runs, so their folds are
/// unchanged bit-for-bit.
pub const LATENCY_BUCKETS: [&str; 6] =
    ["retry", "queue_wait", "prefill", "stall", "kv_handoff", "decode"];

/// One request's exact latency decomposition.
///
/// Invariants (checked by [`LatencyAttribution::validate`], enforced by
/// proptests across scheduler policies, fleets, and disaggregated
/// topologies):
///
/// * `retry_s + queue_wait_s + prefill_s + stall_s` left-folds to
///   `ttft_s` bit-exactly (when the request produced a first token);
/// * all six buckets left-fold to `e2e_s` bit-exactly.
///
/// Buckets are charged hierarchically in order: retry overhead (backoff
/// wait plus work lost to replica failures; 0.0 in fault-free runs)
/// first, then queue wait (arrival → admission), then charged prefill
/// seconds, with the stall bucket absorbing the TTFT residual
/// (iterations spent resident but serving other requests' work — chunk
/// starvation, co-batched decode); the decode bucket absorbs the
/// post-first-token residual. For disaggregated fleets the decode bucket
/// also absorbs the decode chip's own queue wait.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyAttribution {
    /// Trace request id.
    pub req: usize,
    /// Arrival time, seconds.
    pub arrival_s: f64,
    /// Retry overhead: backoff wait and re-prefilled work charged to
    /// replica failures (exactly 0.0 when the request never retried).
    pub retry_s: f64,
    /// Seconds from arrival to admission into the resident batch.
    pub queue_wait_s: f64,
    /// Charged prefill service seconds (whole-prompt or chunked).
    pub prefill_s: f64,
    /// Decode-interleave stall: resident time before the first token not
    /// spent on this request's own prefill.
    pub stall_s: f64,
    /// K/V-cache handoff wire seconds (disaggregated fleets only).
    pub kv_handoff_s: f64,
    /// Decode-phase seconds (everything after the first token).
    pub decode_s: f64,
    /// Recorded time-to-first-token; `None` on decode-only chips.
    pub ttft_s: Option<f64>,
    /// Recorded end-to-end latency.
    pub e2e_s: f64,
}

impl LatencyAttribution {
    /// Builds the attribution of one single-engine request from the
    /// engine's recorded clocks. `exact_split` charges queue wait then
    /// prefill against the TTFT (stall takes the residual), and the
    /// decode bucket takes the end-to-end residual past the TTFT.
    pub(crate) fn from_run(
        req: usize,
        arrival_s: f64,
        admit_s: f64,
        prefill_busy_s: f64,
        ttft_s: Option<f64>,
        e2e_s: f64,
    ) -> Self {
        let queue_nat = admit_s - arrival_s;
        match ttft_s {
            Some(t) => {
                let first = exact_split(t, &[queue_nat, prefill_busy_s]);
                let rest = exact_split(e2e_s, &[t]);
                LatencyAttribution {
                    req,
                    arrival_s,
                    retry_s: 0.0,
                    queue_wait_s: first[0],
                    prefill_s: first[1],
                    stall_s: first[2],
                    kv_handoff_s: 0.0,
                    decode_s: rest[1],
                    ttft_s: Some(t),
                    e2e_s,
                }
            }
            None => {
                let split = exact_split(e2e_s, &[queue_nat]);
                LatencyAttribution {
                    req,
                    arrival_s,
                    retry_s: 0.0,
                    queue_wait_s: split[0],
                    prefill_s: 0.0,
                    stall_s: 0.0,
                    kv_handoff_s: 0.0,
                    decode_s: split[1],
                    ttft_s: None,
                    e2e_s,
                }
            }
        }
    }

    /// Composes a disaggregated request's attribution: TTFT buckets from
    /// the prefill-stage attribution, the K/V wire charged explicitly,
    /// and the decode bucket absorbing the rest of `e2e_total_s`
    /// (including the decode chip's own queue wait).
    pub(crate) fn with_kv_handoff(
        prefill_stage: &LatencyAttribution,
        kv_seconds: f64,
        e2e_total_s: f64,
    ) -> Self {
        let t = prefill_stage.ttft_s.expect("prefill-stage attribution carries a TTFT");
        let split = exact_split(e2e_total_s, &[t, kv_seconds]);
        LatencyAttribution {
            kv_handoff_s: split[1],
            decode_s: split[2],
            e2e_s: e2e_total_s,
            ..prefill_stage.clone()
        }
    }

    /// Re-times a surviving attempt's attribution against the request's
    /// *original* arrival: the backoff wait and lost-attempt time become
    /// the named `retry` bucket instead of silently inflating
    /// `queue_wait`, and the folds stay bit-exact against the true
    /// end-to-end latency (`e2e_total_s`, measured from the original
    /// arrival).
    ///
    /// Construction (relying only on [`exact_split`]'s hard guarantees —
    /// the full fold always equals the total, and the *first* natural is
    /// preserved verbatim when it does not exceed the total):
    ///
    /// 1. the true TTFT is the retry overhead plus the surviving
    ///    attempt's TTFT, clamped to `e2e_total_s`;
    /// 2. the TTFT is split over `[retry, queue, prefill]` naturals, so
    ///    the four TTFT buckets fold to it bit-exactly;
    /// 3. `e2e_total_s` is split over `[true_ttft, kv]`, whose first part
    ///    returns `true_ttft` verbatim — so the six-bucket left fold
    ///    collapses to `(true_ttft + kv) + decode = e2e_total_s`.
    pub(crate) fn with_retry(
        base: &LatencyAttribution,
        retry_wait_s: f64,
        orig_arrival_s: f64,
        e2e_total_s: f64,
    ) -> Self {
        let retry_nat = retry_wait_s.max(0.0);
        match base.ttft_s {
            Some(t) => {
                let true_ttft = (retry_nat + t).min(e2e_total_s);
                let first = exact_split(true_ttft, &[retry_nat, base.queue_wait_s, base.prefill_s]);
                let rest = exact_split(e2e_total_s, &[true_ttft, base.kv_handoff_s]);
                LatencyAttribution {
                    req: base.req,
                    arrival_s: orig_arrival_s,
                    retry_s: first[0],
                    queue_wait_s: first[1],
                    prefill_s: first[2],
                    stall_s: first[3],
                    kv_handoff_s: rest[1],
                    decode_s: rest[2],
                    ttft_s: Some(true_ttft),
                    e2e_s: e2e_total_s,
                }
            }
            None => {
                let split =
                    exact_split(e2e_total_s, &[retry_nat, base.queue_wait_s, base.kv_handoff_s]);
                LatencyAttribution {
                    req: base.req,
                    arrival_s: orig_arrival_s,
                    retry_s: split[0],
                    queue_wait_s: split[1],
                    prefill_s: 0.0,
                    stall_s: 0.0,
                    kv_handoff_s: split[2],
                    decode_s: split[3],
                    ttft_s: None,
                    e2e_s: e2e_total_s,
                }
            }
        }
    }

    /// The six end-to-end buckets, labeled, in charge order
    /// ([`LATENCY_BUCKETS`]).
    pub fn e2e_components(&self) -> [(&'static str, f64); 6] {
        [
            ("retry", self.retry_s),
            ("queue_wait", self.queue_wait_s),
            ("prefill", self.prefill_s),
            ("stall", self.stall_s),
            ("kv_handoff", self.kv_handoff_s),
            ("decode", self.decode_s),
        ]
    }

    /// The TTFT buckets (retry, queue wait, prefill, stall), in charge
    /// order.
    pub fn ttft_components(&self) -> [(&'static str, f64); 4] {
        [
            ("retry", self.retry_s),
            ("queue_wait", self.queue_wait_s),
            ("prefill", self.prefill_s),
            ("stall", self.stall_s),
        ]
    }

    /// The bucket holding the largest share of end-to-end latency (ties
    /// go to the earliest bucket).
    pub fn dominant_bucket(&self) -> &'static str {
        let mut best = ("queue_wait", f64::NEG_INFINITY);
        for (label, value) in self.e2e_components() {
            if value > best.1 {
                best = (label, value);
            }
        }
        best.0
    }

    /// Checks both exact-sum invariants.
    pub fn validate(&self) -> Result<(), String> {
        let fold = |parts: &[f64]| parts.iter().fold(0.0f64, |acc, c| acc + c);
        if let Some(t) = self.ttft_s {
            let sum = fold(&[self.retry_s, self.queue_wait_s, self.prefill_s, self.stall_s]);
            if sum.to_bits() != t.to_bits() {
                return Err(format!(
                    "req {}: ttft components fold to {sum:e}, recorded ttft is {t:e}",
                    self.req
                ));
            }
        }
        let sum = fold(&[
            self.retry_s,
            self.queue_wait_s,
            self.prefill_s,
            self.stall_s,
            self.kv_handoff_s,
            self.decode_s,
        ]);
        if sum.to_bits() != self.e2e_s.to_bits() {
            return Err(format!(
                "req {}: e2e components fold to {sum:e}, recorded e2e is {:e}",
                self.req, self.e2e_s
            ));
        }
        Ok(())
    }
}

/// One p99 violator with its dominant latency bucket named.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaViolation {
    /// Trace request id.
    pub req: usize,
    /// The violating TTFT, seconds.
    pub ttft_s: f64,
    /// The bucket holding the largest share of the TTFT.
    pub dominant: &'static str,
    /// Seconds in the dominant bucket.
    pub dominant_s: f64,
}

/// The SLA-forensics report: every request over the TTFT threshold,
/// worst first, with its dominant latency bucket named — so a p99 miss
/// is attributable (queue wait vs. prefill vs. interleave stall) instead
/// of being a bare quantile.
#[derive(Debug, Clone, PartialEq)]
pub struct SlaForensics {
    /// The TTFT threshold applied, seconds.
    pub threshold_s: f64,
    /// Violators, sorted by TTFT descending (ties by request id).
    pub violators: Vec<SlaViolation>,
}

impl SlaForensics {
    /// Names the dominant TTFT bucket for every attribution whose TTFT
    /// exceeds `threshold_s` (pass a recorded p99 or an SLA bound).
    pub fn over_ttft(attributions: &[LatencyAttribution], threshold_s: f64) -> Self {
        let mut violators: Vec<SlaViolation> = attributions
            .iter()
            .filter_map(|a| {
                let t = a.ttft_s?;
                if t <= threshold_s {
                    return None;
                }
                let (dominant, dominant_s) = a.ttft_components().into_iter().fold(
                    ("queue_wait", f64::NEG_INFINITY),
                    |best, (label, value)| {
                        if value > best.1 {
                            (label, value)
                        } else {
                            best
                        }
                    },
                );
                Some(SlaViolation { req: a.req, ttft_s: t, dominant, dominant_s })
            })
            .collect();
        violators.sort_by(|a, b| b.ttft_s.total_cmp(&a.ttft_s).then(a.req.cmp(&b.req)));
        SlaForensics { threshold_s, violators }
    }

    /// A deterministic plain-text rendering, one line per violator.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} violator(s) over ttft threshold {:.6}s\n",
            self.violators.len(),
            self.threshold_s
        );
        for v in &self.violators {
            out.push_str(&format!(
                "req {:>4}  ttft {:.6}s  dominant {} ({:.6}s, {:.0}%)\n",
                v.req,
                v.ttft_s,
                v.dominant,
                v.dominant_s,
                if v.ttft_s > 0.0 { 100.0 * v.dominant_s / v.ttft_s } else { 0.0 }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_run_is_exact_and_charges_in_order() {
        let a = LatencyAttribution::from_run(3, 1.0, 1.25, 0.5, Some(0.9), 2.1);
        a.validate().unwrap();
        assert_eq!(a.queue_wait_s, 0.25);
        assert_eq!(a.prefill_s, 0.5);
        assert!(a.stall_s >= 0.0);
        assert_eq!(a.kv_handoff_s, 0.0);
        assert_eq!(a.ttft_s, Some(0.9));
        assert_eq!(a.e2e_s, 2.1);
    }

    #[test]
    fn decode_only_runs_have_no_ttft_buckets() {
        let a = LatencyAttribution::from_run(0, 0.5, 0.75, 0.0, None, 1.5);
        a.validate().unwrap();
        assert_eq!(a.ttft_s, None);
        assert_eq!(a.prefill_s, 0.0);
        assert_eq!(a.stall_s, 0.0);
        assert!(a.decode_s > 0.0);
    }

    #[test]
    fn kv_handoff_composition_preserves_ttft_buckets() {
        let prefill = LatencyAttribution::from_run(7, 0.0, 0.1, 0.3, Some(0.45), 0.45);
        let full = LatencyAttribution::with_kv_handoff(&prefill, 0.02, 1.0);
        full.validate().unwrap();
        assert_eq!(full.queue_wait_s, prefill.queue_wait_s);
        assert_eq!(full.prefill_s, prefill.prefill_s);
        assert_eq!(full.stall_s, prefill.stall_s);
        assert!(full.kv_handoff_s > 0.0);
        assert_eq!(full.e2e_s, 1.0);
    }

    #[test]
    fn with_retry_folds_bit_exactly_and_names_the_retry_bucket() {
        // The surviving attempt: arrived (re-admitted) at 2.0, queued
        // 0.25s, prefilled 0.5s, first token at attempt-relative 0.9s.
        let base = LatencyAttribution::from_run(3, 2.0, 2.25, 0.5, Some(0.9), 2.1);
        // Original arrival 0.3, so the retry overhead (backoff + lost
        // first attempt) is 1.7s and the true e2e is 2.1 + 1.7 = 3.8s.
        let full = LatencyAttribution::with_retry(&base, 1.7, 0.3, 1.7 + 2.1);
        full.validate().unwrap();
        assert_eq!(full.req, 3);
        assert_eq!(full.arrival_s, 0.3);
        assert_eq!(full.retry_s, 1.7, "retry is the first natural: preserved verbatim");
        assert_eq!(full.ttft_s, Some(1.7 + 0.9));
        assert_eq!(full.e2e_s, 1.7 + 2.1);
        assert_eq!(full.dominant_bucket(), "retry");
        // Decode-only base (no TTFT): retry still charges first.
        let decode_only = LatencyAttribution::from_run(4, 1.0, 1.5, 0.0, None, 2.0);
        let retried = LatencyAttribution::with_retry(&decode_only, 0.4, 0.5, 2.5);
        retried.validate().unwrap();
        assert_eq!(retried.retry_s, 0.4);
        assert_eq!(retried.ttft_s, None);
    }

    #[test]
    fn fault_free_attributions_carry_a_zero_retry_bucket() {
        let a = LatencyAttribution::from_run(1, 0.0, 0.1, 0.2, Some(0.5), 1.0);
        assert_eq!(a.retry_s, 0.0);
        assert_eq!(a.e2e_components()[0], ("retry", 0.0));
        assert_eq!(a.ttft_components()[0], ("retry", 0.0));
        assert_eq!(LATENCY_BUCKETS[0], "retry");
        a.validate().unwrap();
    }

    #[test]
    fn forensics_names_the_dominant_bucket_worst_first() {
        let mk = |req, queue, prefill, out| {
            LatencyAttribution::from_run(req, 0.0, queue, prefill, Some(queue + prefill), out)
        };
        let attrs = vec![mk(0, 0.01, 0.02, 0.05), mk(1, 0.5, 0.1, 0.7), mk(2, 0.05, 0.4, 0.5)];
        let forensics = SlaForensics::over_ttft(&attrs, 0.1);
        assert_eq!(forensics.violators.len(), 2);
        assert_eq!(forensics.violators[0].req, 1);
        assert_eq!(forensics.violators[0].dominant, "queue_wait");
        assert_eq!(forensics.violators[1].req, 2);
        assert_eq!(forensics.violators[1].dominant, "prefill");
        let text = forensics.render();
        assert!(text.contains("2 violator(s)"));
        assert!(text.lines().count() == 3);
    }
}
