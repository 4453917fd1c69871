//! The benchmark's command line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload codesign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root (the golden renders are read from
//! `tests/golden/`). One client runs one operation at a time (closed
//! loop) until `--seconds` have passed. The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A traced run also writes its spans under
//! `$CARGO_TARGET_DIR/perfbench-spans/` (default `perfbench/target/`).

use perfbench::spans::{spans_json, Tracer};
use perfbench::{
    golden_renders, paper_errors, run_op, setup, Inputs, OpOutcome, Scale, Tally, Workload,
    PER_LAYER,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

const USAGE: &str = "usage: perfbench --workload <codesign|serve_overload|paper_eval> \
     --seed <u64> --seconds <u64> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |name: &str| flags.get(name).ok_or_else(|| format!("missing --{name}"));
    let number = |name: &str| -> Result<u64, String> {
        get(name)?.parse().map_err(|e| format!("--{name}: {e}"))
    };
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    let w = args.workload.name();
    println!(
        "env: workload={w} seed={} seconds={} trace={} nproc={} rayon_threads={} profile={}",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );

    // Set-up: the reference checks (outside the timed operations) and the
    // workload's inputs. The model is analytical, with no measured-hardware
    // reference: the paper's reported values are the only reference, and
    // the checked-in goldens pin the canonical renders.
    let (first_setup, (goldens, errors, inputs)) = set_up(&args);
    for (file, matches) in &goldens {
        println!("golden: {file} {}", if *matches { "matches" } else { "DIFFERS" });
    }
    let goldens_match = goldens.iter().all(|(_, matches)| *matches);
    for (name, paper, model, err) in &errors {
        println!("paper: {name} = {err:.4} (model {model:.4} vs paper {paper})");
    }

    let off = Tracer::off();
    let on = Tracer::on();
    let budget = Duration::from_secs(args.seconds);
    let mut untraced: Vec<OpOutcome> = Vec::new();
    let mut traced: Vec<OpOutcome> = Vec::new();
    if !args.trace {
        // Warm-up, outside the timing: operation 0, traced. Its digest is
        // compared with that of the untraced operation 0.
        traced.push(run_op(&inputs, 0, &on));
    }
    // The set-up is repeated between operations, spread evenly over the
    // run, so that its median samples the same host conditions as the
    // operations' median does.
    let mut setup_s = vec![first_setup];
    let setup_every = budget / SETUP_REPS as u32;
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed() < budget {
        if setup_s.len() < SETUP_REPS && start.elapsed() >= setup_every * setup_s.len() as u32 {
            setup_s.push(set_up(&args).0);
        }
        // A traced run pairs every operation with a traced twin on the same
        // inputs, alternating which goes first so warm-up cancels out of
        // the overhead.
        let op = untraced.len();
        let traced_first = args.trace && op.is_multiple_of(2);
        if traced_first {
            traced.push(run_op(&inputs, op, &on));
        }
        untraced.push(run_op(&inputs, op, &off));
        if args.trace && !traced_first {
            traced.push(run_op(&inputs, op, &on));
        }
    }
    let Tally { attempted, failed, digests_match } = Tally::of(&untraced, &traced);
    println!("sim_digest: op0={:016x} traced_matches_untraced={digests_match}", untraced[0].digest);
    for (i, o) in untraced.iter().chain(&traced).enumerate() {
        for f in &o.checks.failures {
            println!("FAILED op {i}: {f}");
        }
    }
    let correct = failed == 0 && digests_match && goldens_match;

    let ms = |ops: &[OpOutcome]| ops.iter().map(|o| o.host.as_secs_f64() * 1e3).collect::<Vec<_>>();
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let overhead = median(ms(&traced)) - median(ms(&untraced));
        println!("trace: {} traced ops, overhead {overhead:.3} ms per op", traced.len());
        for (name, unit) in PER_LAYER {
            let value = if name == "trace_overhead_ms" {
                overhead
            } else {
                traced.iter().map(|o| o.layers.get(name).copied().unwrap_or(0.0)).sum::<f64>()
                    / traced.len() as f64
            };
            metrics.push((name.to_string(), value, unit));
        }
        write_spans(w, args.seed, &on);
    } else {
        let host = ms(&untraced);
        let (pct, tail, beyond) = tail(&host);
        println!("op_tail_ms: p{pct} of {} ops ({beyond} beyond it)", host.len());
        let sim_rates = untraced
            .iter()
            .map(|o| o.sim_requests as f64 / o.host.as_secs_f64())
            .collect::<Vec<_>>();
        metrics.push(("op_p50_ms".into(), median(host), "ms"));
        metrics.push(("op_tail_ms".into(), tail, "ms"));
        metrics.push(("setup_s".into(), median(setup_s), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        metrics.push(("op_ok_ratio".into(), 1.0 - failed as f64 / attempted as f64, "ratio"));
        metrics.push(("sim_req_per_s".into(), median(sim_rates), "1/s"));
        for (name, _, _, err) in &errors {
            metrics.push((name.to_string(), *err, "ratio"));
        }
        metrics.push(("sim_digest_match".into(), if digests_match { 1.0 } else { 0.0 }, "bool"));
    }
    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The inputs and reference checks a run needs before its first
/// operation.
type Prepared = (Vec<(&'static str, bool)>, Vec<(&'static str, f64, f64, f64)>, Inputs);

/// One set-up: compares the canonical renders with the goldens, computes
/// the paper errors and generates the workload's inputs.
fn set_up(args: &Args) -> (f64, Prepared) {
    let t = Instant::now();
    let goldens = check_goldens(Path::new("tests/golden")).unwrap_or_else(|e| {
        eprintln!("cannot read the golden renders: {e} (run from the repository root)");
        exit(1)
    });
    let errors = paper_errors();
    let inputs = setup(args.workload, args.seed, Scale::Full);
    (t.elapsed().as_secs_f64(), (goldens, errors, inputs))
}

/// Compares every canonical render with its checked-in golden.
fn check_goldens(dir: &Path) -> std::io::Result<Vec<(&'static str, bool)>> {
    golden_renders()
        .into_iter()
        .map(|(file, render)| {
            let golden = std::fs::read_to_string(dir.join(file))?;
            Ok((file, golden.trim_end() == render.trim_end()))
        })
        .collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of p90 and p75 with at least ten samples beyond it
/// (nearest rank), as `(percentile, value, samples beyond)`; the median
/// when there are too few samples for either. Nothing above p90: in a
/// 35-s run of ~1,400 `paper_eval` operations of ~25 ms, p99 is the
/// 14th-slowest operation, which a single sub-second stall of the shared
/// host sets; it moved by a third between runs of the same code.
fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    match [90.0, 75.0].into_iter().find(|&p| n - at(p) >= 10) {
        Some(p) => (p, v[at(p) - 1], n - at(p)),
        None => (50.0, median(v), n / 2),
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or_else(|| {
            eprintln!("VmHWM is not available in /proc/self/status");
            exit(1)
        })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn write_spans(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-spans");
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans_json(&tracer.spans())));
    match written {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
}
