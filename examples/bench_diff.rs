//! Baseline diff for the parallel-eval bench summary: compares the
//! *deterministic* telemetry keys of `target/bench_summary.json`
//! against the checked-in `tests/golden/bench_baseline.json` and fails
//! (exit 1) on any unexplained drift beyond the tolerance.
//!
//! Only seeded, deterministic quantities are gated — cache hit ratio,
//! flush batch mean, serve batch mean, event count, the search-budget
//! attribution counters, the revisits of a genetic search whose budget
//! covers its space, and the tilings the GEMM mapper evaluates for one
//! BERT layer. Wall-clock fields (`*_ns`, `speedup`) and `threads` vary
//! by machine and are never compared.
//!
//! Usage:
//!   bench_diff [--current PATH] [--baseline PATH] [--tolerance FRAC] [--bless]
//!
//! `--bless` (or env `FUSEMAX_UPDATE_GOLDEN=1`) rewrites the baseline
//! from the current summary instead of diffing.

use std::path::PathBuf;
use std::process::exit;

/// The deterministic keys gated by this diff, in report order. Every
/// key names a number that appears exactly once in the summary's
/// telemetry block.
const KEYS: &[&str] = &[
    "search_cache_hit_ratio",
    "search_flush_batch_mean",
    "serve_batch_mean",
    "serve_retries",
    "serve_sheds",
    "search_saturated_revisits",
    "mapper_evaluations",
    "events",
    "staged",
    "screened_out",
    "cache_hits",
    "full_evals",
    "flushes",
    "chains",
];

/// Extract `"key":<number>` from a JSON document without a parser,
/// returning the raw substring and its parsed value.
fn extract(doc: &str, key: &str) -> Option<(String, f64)> {
    let needle = format!("\"{key}\":");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let raw = rest[..end].trim();
    raw.parse::<f64>().ok().map(|v| (raw.to_string(), v))
}

fn read(path: &PathBuf, role: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {role} {}: {e}", path.display());
        exit(1);
    })
}

fn main() {
    let mut current = PathBuf::from("target/bench_summary.json");
    let mut baseline = PathBuf::from("tests/golden/bench_baseline.json");
    let mut tolerance = 0.10_f64;
    let mut bless = std::env::var_os("FUSEMAX_UPDATE_GOLDEN").is_some();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} expects a value");
                exit(2);
            })
        };
        match a.as_str() {
            "--current" => current = PathBuf::from(take("--current")),
            "--baseline" => baseline = PathBuf::from(take("--baseline")),
            "--tolerance" => {
                tolerance = take("--tolerance").parse().unwrap_or_else(|e| {
                    eprintln!("--tolerance expects a fraction: {e}");
                    exit(2);
                })
            }
            "--bless" => bless = true,
            _ => {
                eprintln!(
                    "usage: bench_diff [--current PATH] [--baseline PATH] \
                     [--tolerance FRAC] [--bless]"
                );
                exit(2);
            }
        }
    }

    let doc = read(&current, "current summary");
    let mut extracted = Vec::new();
    for key in KEYS {
        match extract(&doc, key) {
            Some(pair) => extracted.push((*key, pair)),
            None => {
                eprintln!("current summary {} is missing key {key:?}", current.display());
                exit(1);
            }
        }
    }

    if bless {
        let body: Vec<String> =
            extracted.iter().map(|(k, (raw, _))| format!("\"{k}\":{raw}")).collect();
        let rendered = format!("{{{}}}\n", body.join(","));
        std::fs::write(&baseline, rendered).unwrap_or_else(|e| {
            eprintln!("cannot write baseline {}: {e}", baseline.display());
            exit(1);
        });
        println!("blessed {} keys into {}", extracted.len(), baseline.display());
        return;
    }

    let base_doc = read(&baseline, "baseline");
    let mut failures = 0usize;
    for (key, (_, cur)) in &extracted {
        let Some((_, base)) = extract(&base_doc, key) else {
            eprintln!("FAIL {key}: missing from baseline {}", baseline.display());
            failures += 1;
            continue;
        };
        // Relative tolerance against the baseline magnitude; exact-zero
        // baselines only accept exact-zero currents.
        let limit = tolerance * base.abs();
        let drift = (cur - base).abs();
        if drift > limit {
            eprintln!(
                "FAIL {key}: baseline {base} -> current {cur} \
                 (drift {drift:.6} > allowed {limit:.6})"
            );
            failures += 1;
        } else {
            println!("ok   {key}: {base} -> {cur}");
        }
    }

    if failures > 0 {
        eprintln!(
            "{failures} deterministic bench key(s) drifted beyond {:.0}%.\n\
             If the change is intentional, re-bless with\n\
             cargo run --release --example bench_diff -- --bless",
            tolerance * 100.0
        );
        exit(1);
    }
    println!("bench summary matches the baseline on all {} deterministic keys.", extracted.len());
}
