//! A Timeloop-style mapping search for GEMMs on the spatial architecture.
//!
//! The paper "use\[s\] Timeloop to search for efficient mappings to perform
//! QK and AV" in the unfused baseline and "for optimal mappings for these
//! linear layers" (§VI-A/§VI-C). This module reproduces that role for the
//! class of kernels those searches cover: a single dense GEMM
//! `Z[m,n] = A[k,m] × B[k,n]` staged through the global buffer.
//!
//! A [`GemmMapping`] picks buffer-level tile sizes `(K1, M1, N1)`. The
//! standard tiled-GEMM traffic model applies:
//!
//! * `A` is re-read once per `N`-tile pass: `K·M·⌈N/N1⌉` words;
//! * `B` is re-read once per `M`-tile pass: `K·N·⌈M/M1⌉` words;
//! * `Z` is written once if `K` is untiled, otherwise partial sums spill:
//!   `M·N·(2·⌈K/K1⌉ − 1)` words.
//!
//! Tile candidates are powers of two below each extent plus the extent
//! itself. A tiling fits when its double-buffered live tiles,
//! `2·(K1·M1 + (K1+M1)·N1)` words, fit the global buffer. The search picks,
//! among the fitting tilings, the one with the least DRAM traffic; ties go
//! to the lexicographically largest `(K1, M1, N1)`.
//!
//! It does not enumerate `N1`. For fixed `(K1, M1)`, `A` traffic cannot
//! rise as `N1` grows, `B` traffic is flat until `N1 = N` makes `B`
//! resident and then falls, and `Z` traffic does not depend on `N1`. The
//! capacity test holds on a prefix of the sorted `N1` candidates. So the
//! largest fitting `N1` has the least traffic of its `(K1, M1)` row and
//! wins every tie in it: one evaluation per `(K1, M1)`. The fitting prefix
//! also shrinks as `M1` grows, so the search finds each row's `N1` by
//! walking down from the previous row's. Rounding is monotone, so all of
//! this holds for the `f64` traffic, and the pruned search returns
//! bit-for-bit the mapping the full enumeration would.

use crate::common::Machine;
use fusemax_arch::ArchConfig;
use std::fmt;

/// A dense GEMM `Z[m,n] = A[k,m] × B[k,n]` (paper Einsum 1's shape).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmProblem {
    /// Shared (reduction) rank extent.
    pub k: usize,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
}

impl GemmProblem {
    /// Creates a problem; all extents must be positive.
    ///
    /// # Panics
    ///
    /// Panics when any extent is zero.
    pub fn new(k: usize, m: usize, n: usize) -> Self {
        assert!(k > 0 && m > 0 && n > 0, "GEMM extents must be positive");
        Self { k, m, n }
    }

    /// Multiply–accumulate count.
    pub fn maccs(&self) -> f64 {
        self.k as f64 * self.m as f64 * self.n as f64
    }

    /// Compulsory traffic in words: every operand once, the output once.
    pub fn compulsory_words(&self) -> f64 {
        (self.k * self.m + self.k * self.n + self.m * self.n) as f64
    }
}

impl fmt::Display for GemmProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Z[{m},{n}] = A[{k},{m}] × B[{k},{n}]", k = self.k, m = self.m, n = self.n)
    }
}

/// One point in the mapping space: buffer-level tile sizes plus its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmMapping {
    /// Tile extent along `K`.
    pub tile_k: usize,
    /// Tile extent along `M`.
    pub tile_m: usize,
    /// Tile extent along `N`.
    pub tile_n: usize,
    /// Total DRAM traffic in bytes under this mapping.
    pub dram_bytes: f64,
    /// Compute cycles on the 2D array.
    pub compute_cycles: f64,
    /// Roofline latency in cycles.
    pub cycles: f64,
}

impl GemmMapping {
    /// `true` when the mapping achieves compulsory-only traffic.
    pub fn is_compulsory(&self, problem: &GemmProblem, word_bytes: f64) -> bool {
        self.dram_bytes <= problem.compulsory_words() * word_bytes * (1.0 + 1e-9)
    }
}

impl fmt::Display for GemmMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tiles K1={} M1={} N1={}: {:.3e} B DRAM, {:.3e} cycles",
            self.tile_k, self.tile_m, self.tile_n, self.dram_bytes, self.cycles
        )
    }
}

/// Power-of-two candidates up to `extent` (always including `extent`).
fn tile_candidates(extent: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut t = 1usize;
    while t < extent {
        out.push(t);
        t *= 2;
    }
    out.push(extent);
    out
}

/// Evaluates one tiling's traffic and latency. A fully-resident tensor
/// (its tile covers the whole tensor) is stationary: loaded exactly once.
fn evaluate(problem: &GemmProblem, m: &Machine, k1: usize, m1: usize, n1: usize) -> GemmMapping {
    let (k, mm, n) = (problem.k as f64, problem.m as f64, problem.n as f64);
    let passes_n = (n / n1 as f64).ceil();
    let passes_m = (mm / m1 as f64).ceil();
    let passes_k = (k / k1 as f64).ceil();
    let a_resident = k1 == problem.k && m1 == problem.m;
    let b_resident = k1 == problem.k && n1 == problem.n;
    let words_a = k * mm * if a_resident { 1.0 } else { passes_n };
    let words_b = k * n * if b_resident { 1.0 } else { passes_m };
    let words_z = mm * n * (2.0 * passes_k - 1.0);
    let dram_bytes = (words_a + words_b + words_z) * m.w;
    let compute_cycles = problem.maccs() / m.pe2;
    let cycles = compute_cycles.max(dram_bytes / m.bpc);
    GemmMapping { tile_k: k1, tile_m: m1, tile_n: n1, dram_bytes, compute_cycles, cycles }
}

/// Searches the tiling space for the minimum-traffic mapping that fits the
/// global buffer (double-buffered: two copies of each live tile).
///
/// The winner has the least `dram_bytes` of all fitting candidate
/// tilings; ties go to the lexicographically largest `(K1, M1, N1)`. Only
/// the largest fitting `N1` of each `(K1, M1)` is evaluated (see the
/// [module docs](self) for why no other can win). Falls back to unit tiles
/// `(1, 1, 1)` if nothing fits (pathologically small buffers).
///
/// # Example
///
/// ```
/// use fusemax_arch::ArchConfig;
/// use fusemax_model::mapper::{search_gemm_mapping, GemmProblem};
///
/// // A BERT FFN matmul at L=4K, B=64: K=768, M=3072, N=262144.
/// let problem = GemmProblem::new(768, 3072, 1 << 18);
/// let mapping = search_gemm_mapping(&problem, &ArchConfig::fusemax_cloud());
/// // The 16 MB buffer is big enough to reach compulsory-only traffic.
/// assert!(mapping.is_compulsory(&problem, 2.0));
/// ```
pub fn search_gemm_mapping(problem: &GemmProblem, arch: &ArchConfig) -> GemmMapping {
    search(problem, arch).0
}

/// How many tilings [`search_gemm_mapping`] evaluates for `problem` on
/// `arch`: one per `(K1, M1)` with a fitting `N1`, or one for the unit-tile
/// fallback.
pub fn mapping_evaluations(problem: &GemmProblem, arch: &ArchConfig) -> usize {
    search(problem, arch).1
}

/// The search behind [`search_gemm_mapping`], with its evaluation count.
fn search(problem: &GemmProblem, arch: &ArchConfig) -> (GemmMapping, usize) {
    let m = Machine::of(arch);
    let capacity_words = m.buf / m.w / 2.0; // double buffering
    let overflows =
        |k1: usize, m1: usize, n1: usize| (k1 * m1 + k1 * n1 + m1 * n1) as f64 > capacity_words;
    let (m_candidates, n_candidates) = (tile_candidates(problem.m), tile_candidates(problem.n));
    let mut best: Option<GemmMapping> = None;
    let mut evaluations = 0;
    // `(K1, M1)` rises lexicographically, so `<=` hands ties to the later,
    // larger tiling.
    for &k1 in &tile_candidates(problem.k) {
        // The fitting `N1` candidates form a prefix that only shrinks as
        // `M1` grows, so one walk down it serves the whole `M1` loop.
        let mut fitting = n_candidates.len();
        for &m1 in &m_candidates {
            while fitting > 0 && overflows(k1, m1, n_candidates[fitting - 1]) {
                fitting -= 1;
            }
            let Some(&n1) = n_candidates[..fitting].last() else {
                break; // nothing fits this `M1`, nor any larger one
            };
            let candidate = evaluate(problem, &m, k1, m1, n1);
            evaluations += 1;
            if best.is_none_or(|b| candidate.dram_bytes <= b.dram_bytes) {
                best = Some(candidate);
            }
        }
    }
    match best {
        Some(best) => (best, evaluations),
        None => (evaluate(problem, &m, 1, 1, 1), 1),
    }
}

/// The full enumeration of every fitting `(K1, M1, N1)`: the oracle the
/// pruned [`search_gemm_mapping`] must match bit for bit.
#[cfg(test)]
fn search_gemm_mapping_brute(problem: &GemmProblem, arch: &ArchConfig) -> GemmMapping {
    let m = Machine::of(arch);
    let capacity_words = m.buf / m.w / 2.0; // double buffering
    let mut best: Option<GemmMapping> = None;
    for &k1 in &tile_candidates(problem.k) {
        for &m1 in &tile_candidates(problem.m) {
            for &n1 in &tile_candidates(problem.n) {
                let resident = (k1 * m1 + k1 * n1 + m1 * n1) as f64;
                if resident > capacity_words {
                    continue;
                }
                let candidate = evaluate(problem, &m, k1, m1, n1);
                let better = match &best {
                    None => true,
                    Some(b) => {
                        candidate.dram_bytes < b.dram_bytes * (1.0 - 1e-12)
                            || (candidate.dram_bytes <= b.dram_bytes
                                && (k1, m1, n1) > (b.tile_k, b.tile_m, b.tile_n))
                    }
                };
                if better {
                    best = Some(candidate);
                }
            }
        }
    }
    best.unwrap_or_else(|| evaluate(problem, &m, 1, 1, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cloud() -> ArchConfig {
        ArchConfig::fusemax_cloud()
    }

    /// Asserts the pruned search and the brute force agree bit for bit.
    fn assert_matches_brute_force(problem: &GemmProblem, arch: &ArchConfig) {
        let pruned = search_gemm_mapping(problem, arch);
        let brute = search_gemm_mapping_brute(problem, arch);
        assert_eq!(pruned, brute, "{problem} on a {} B buffer", arch.global_buffer_bytes);
        assert_eq!(pruned.dram_bytes.to_bits(), brute.dram_bytes.to_bits());
    }

    /// An extent up to `2^max_exp`: a power of two, or a log-uniform
    /// arbitrary value (so the extent itself is a non-power-of-two tile).
    fn extent(max_exp: u32) -> impl Strategy<Value = usize> {
        prop_oneof![
            (0..max_exp + 1).prop_map(|e| 1usize << e),
            (0.0..max_exp as f64).prop_map(|x| 2f64.powf(x).round() as usize),
        ]
    }

    /// A buffer from 4 B to 64 MiB: a power of two or log-uniform arbitrary.
    fn buffer_bytes() -> impl Strategy<Value = u64> {
        prop_oneof![
            (2u32..27).prop_map(|e| 1u64 << e),
            (2.0..26.0).prop_map(|x: f64| 2f64.powf(x).round() as u64),
        ]
    }

    #[test]
    fn candidates_cover_extent() {
        assert_eq!(tile_candidates(8), vec![1, 2, 4, 8]);
        assert_eq!(tile_candidates(6), vec![1, 2, 4, 6]);
        assert_eq!(tile_candidates(1), vec![1]);
    }

    #[test]
    fn traffic_is_at_least_compulsory() {
        let p = GemmProblem::new(512, 512, 1 << 16);
        let m = search_gemm_mapping(&p, &cloud());
        assert!(m.dram_bytes >= p.compulsory_words() * 2.0 - 1.0);
    }

    #[test]
    fn large_buffer_reaches_compulsory_traffic() {
        // A tile of B plus a K-strip of A fits easily: traffic is inputs +
        // output exactly once.
        let p = GemmProblem::new(768, 768, 1 << 14);
        let m = search_gemm_mapping(&p, &cloud());
        assert!(m.is_compulsory(&p, 2.0), "{m}");
    }

    #[test]
    fn shrinking_the_buffer_increases_traffic() {
        let p = GemmProblem::new(2048, 2048, 1 << 15);
        let big = search_gemm_mapping(&p, &cloud());
        let mut small_arch = cloud();
        small_arch.global_buffer_bytes = 64 << 10; // 64 KB
        let small = search_gemm_mapping(&p, &small_arch);
        assert!(
            small.dram_bytes > 2.0 * big.dram_bytes,
            "small {:.3e} vs big {:.3e}",
            small.dram_bytes,
            big.dram_bytes
        );
    }

    #[test]
    fn mapping_respects_the_capacity_constraint() {
        let p = GemmProblem::new(4096, 4096, 4096);
        let arch = cloud();
        let m = search_gemm_mapping(&p, &arch);
        let words = (m.tile_k * m.tile_m + m.tile_k * m.tile_n + m.tile_m * m.tile_n) as f64;
        assert!(words <= arch.global_buffer_bytes as f64 / 2.0 / 2.0);
    }

    #[test]
    fn weight_stationary_gemms_are_compute_bound() {
        // An FFN-shaped GEMM (weights resident, a million tokens streamed)
        // reaches the compute roofline: the arithmetic intensity is D MACCs
        // per streamed word.
        let p = GemmProblem::new(768, 3072, 1 << 20);
        let m = search_gemm_mapping(&p, &cloud());
        assert!((m.cycles - m.compute_cycles).abs() < 1e-6 * m.cycles, "{m}");
        assert!(m.is_compulsory(&p, 2.0), "{m}");
    }

    #[test]
    fn search_is_deterministic() {
        let p = GemmProblem::new(768, 3072, 1 << 16);
        let a = search_gemm_mapping(&p, &cloud());
        let b = search_gemm_mapping(&p, &cloud());
        assert_eq!(a, b);
    }

    #[test]
    fn a_buffer_too_small_for_any_tile_falls_back_to_unit_tiles() {
        // Unit tiles need 3 words, double-buffered: 12 bytes at 2 B/word.
        let p = GemmProblem::new(64, 64, 64);
        let mut arch = cloud();
        arch.global_buffer_bytes = 11;
        let m = search_gemm_mapping(&p, &arch);
        assert_eq!((m.tile_k, m.tile_m, m.tile_n), (1, 1, 1));
        assert_eq!(mapping_evaluations(&p, &arch), 1);
        assert_matches_brute_force(&p, &arch);
    }

    #[test]
    fn one_evaluation_per_fitting_k_m_pair() {
        // Everything fits: 4 × 5 `(K1, M1)` pairs, not 4 × 5 × 8 tilings.
        let p = GemmProblem::new(8, 16, 128);
        assert_eq!(mapping_evaluations(&p, &cloud()), 4 * 5);
        assert_matches_brute_force(&p, &cloud());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Property: pruning by dominance changes nothing. Covers
        /// non-power-of-two extents, `N` up to 2^21, buffers from a few
        /// bytes to 64 MiB and 1/2/4-byte words.
        #[test]
        fn pruned_search_matches_the_brute_force(
            k in extent(13),
            m in extent(13),
            n in extent(21),
            buffer in buffer_bytes(),
            word_exp in 0u32..3,
        ) {
            let mut arch = cloud();
            arch.global_buffer_bytes = buffer;
            arch.word_bytes = 1 << word_exp;
            assert_matches_brute_force(&GemmProblem::new(k, m, n), &arch);
        }

        /// Property: the same where `B` can become resident. The buffer
        /// holds at least the `(K, 1, N)` tiling and at most the whole
        /// problem, so `N1 = N` changes `B` traffic inside the space. At
        /// either end the buffer is exactly full, which tests the capacity
        /// boundary.
        #[test]
        fn pruned_search_matches_the_brute_force_when_b_can_be_resident(
            k in extent(10),
            m in extent(12),
            n in extent(12),
            fill in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
        ) {
            let mut arch = cloud();
            let least = (k + k * n + n) as f64;
            let whole = (k * m + k * n + m * n) as f64;
            let words = least + fill * (whole - least);
            arch.global_buffer_bytes = (2.0 * arch.word_bytes as f64 * words).ceil() as u64;
            assert_matches_brute_force(&GemmProblem::new(k, m, n), &arch);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = GemmProblem::new(0, 1, 1);
    }

    #[test]
    fn display_forms() {
        let p = GemmProblem::new(2, 3, 4);
        assert!(p.to_string().contains("A[2,3]"));
        let m = search_gemm_mapping(&p, &cloud());
        assert!(m.to_string().contains("tiles"));
    }
}
