//! `perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload (or every workload, with `all`) for about `S`
//! seconds, prints each metric by name with its unit and sample count,
//! checks the modelled outputs, and ends with one JSON result line. With
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer ledger instead. See `perfbench/README.md`.

#![forbid(unsafe_code)]
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
// ^ the repository's clippy.toml keeps clocks and the environment out of
// the simulator; timing the host is this package's whole job.

use cgct_perfbench::harness::{mark_mismatches, run_pass, setup_sample, Pass};
use cgct_perfbench::report::{end_to_end, per_layer, result_line, Metric};
use cgct_perfbench::workload::Workload;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Host knobs that change how the simulator runs; the benchmark pins
/// the engine in code and refuses to run beside them.
const ENGINE_KNOBS: [&str; 5] = [
    "CGCT_NO_SKIP",
    "CGCT_INTRA_JOBS",
    "CGCT_TRACE",
    "CGCT_SANITIZE",
    "CGCT_SANITIZE_INTERVAL",
];

/// Untraced passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

/// Modelled-output digests recorded for the default and held-out seeds.
const DIGESTS: &str = include_str!("../digests.txt");

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads = vec![Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; expected all or one of {names:?}")
                })?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some(knob) = ENGINE_KNOBS.iter().find(|k| std::env::var_os(k).is_some()) {
            return Err(format!(
                "{knob} is set; unset it, the benchmark pins the engine itself"
            ));
        }
        let mut all_correct = true;
        for &w in &args.workloads {
            all_correct &= run_workload(w, &args)?;
        }
        Ok(all_correct)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload and prints its report; returns whether it was
/// correct.
fn run_workload(w: Workload, args: &Args) -> Result<bool, String> {
    let cells = w.cells();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Duration::from_secs_f64(args.seconds);
    println!(
        "== {} seed={} trace={} host_cpus={jobs}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut errors: Vec<String> = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut first_pass_rss = 0.0;
    loop {
        // One set-up sample per pass spreads them over the run, as the
        // pass times are.
        if !args.trace {
            setup.push(setup_sample(&cells, args.seed));
        }
        let u = run_pass(&cells, args.seed, false, jobs);
        let mut iteration_s = u.wall_s;
        if args.trace {
            let t = run_pass(&cells, args.seed, true, jobs);
            iteration_s += t.wall_s;
            traced.push(t);
        }
        untraced.push(u);
        // Later passes reuse freed memory from whichever allocator arena a
        // new worker thread lands on, so only the first pass's peak repeats.
        if untraced.len() == 1 && !args.trace {
            first_pass_rss = peak_rss_mib()?;
        }
        // Stop before an iteration like the last one would overrun.
        let enough = args.trace || untraced.len() >= MIN_PASSES;
        if enough && start.elapsed() + Duration::from_secs_f64(iteration_s) > budget {
            break;
        }
    }
    let (first, rest) = untraced.split_first_mut().expect("at least one pass");
    for p in rest.iter_mut().chain(&mut traced) {
        mark_mismatches(first, p);
    }
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    for c in all.iter().flat_map(|p| &p.cells) {
        if let Err(e) = &c.status {
            errors.push(e.clone());
        }
    }
    let digest = untraced[0].digest();
    if let Some(golden) = recorded_digest(w, args.seed)? {
        if golden != digest {
            errors.push(format!(
                "sim_digest {digest:#018x} differs from the {golden:#018x} recorded for seed {}",
                args.seed
            ));
        }
    }
    let attempted = all.iter().map(|p| p.cells.len()).sum();
    let failed = all.iter().map(|p| p.failed()).sum();
    for c in &untraced[0].cells {
        println!("cell {} seconds={:.4}", c.summary, c.seconds);
    }
    println!("sim_digest {digest:#018x}");
    let metrics = if args.trace {
        let pairs: Vec<(Pass, Pass)> = untraced.into_iter().zip(traced).collect();
        per_layer(&pairs)
    } else {
        end_to_end(&untraced, &setup, first_pass_rss)
    };
    print_metrics(w, &metrics);
    for e in &errors {
        println!("FAILED: {e}");
    }
    println!("failed_cells {failed} of {attempted} cells");
    println!(
        "{}",
        result_line(errors.is_empty(), attempted, failed, &metrics)
    );
    Ok(errors.is_empty())
}

/// The digest recorded in `digests.txt` for `w` at `seed`, if any.
fn recorded_digest(w: Workload, seed: u64) -> Result<Option<u64>, String> {
    for line in DIGESTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
    {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, s, digest] = fields[..] else {
            return Err(format!("digests.txt: malformed line {line:?}"));
        };
        if name == w.name() && s == seed.to_string() {
            let hex = digest.trim_start_matches("0x");
            return u64::from_str_radix(hex, 16)
                .map(Some)
                .map_err(|e| format!("digests.txt: {line:?}: {e}"));
        }
    }
    Ok(None)
}

/// Prints every metric by name with its unit and, for medians, the
/// samples behind it.
fn print_metrics(w: Workload, metrics: &[Metric]) {
    for m in metrics {
        match &m.summary {
            Some(s) => println!("{:<28} {}", m.name, s.describe(m.unit)),
            None => println!("{:<28} {} {}", m.name, m.value, m.unit),
        }
        if m.name == "kunits_per_s" {
            let (alias, value, unit) = match w {
                Workload::Verify => ("verify_kstates_per_s", m.value, "kstates/s"),
                _ => ("sim_minstr_per_s", m.value / 1e3, "Minstr/s"),
            };
            println!("{alias:<28} {value} {unit} (kunits_per_s, named for this workload)");
        }
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
