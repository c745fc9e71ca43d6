//! Regenerates every table and figure of the CGCT paper.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
// ^ clippy mirror of D001/D004 (clippy.toml): host-facing binary —
// wall-clock timing.json and CLI env plumbing live here by policy,
// exactly as cgct-lint exempts src/bin/ paths.
//!
//! ```text
//! experiments <command> [--quick] [--serial] [--sanitize] [--json <dir>]
//!
//! commands:
//!   table1 table2 table3 table4    analytic tables
//!   fig2 fig6 fig7 fig8 fig9 fig10 the paper's figures
//!   rca-stats                      §3.2/§5.2 statistics (quarter scale)
//!   ablations                      design choices + §3.1/§6 extensions
//!   scalability                    16-core two-board study
//!   energy                         §6 energy estimate (incl. Jetty)
//!   region-sweep                   64B-4KB region sizes
//!   directory                      snoop vs CGCT vs full-map directory
//!   sectoring                      sectored-cache miss ratios (§2)
//!   diag                           calibration diagnostics
//!   all                            everything, in paper order
//!   run <benchmark>                one cell, checkpointable/resumable
//!   cache gc                       prune stale result-cache entries
//! ```
//!
//! `--quick` uses the scaled-down plan (CI-friendly); the default plan is
//! the full evaluation scale used for `EXPERIMENTS.md`.
//!
//! Work fans out across the deterministic thread pool
//! (`cgct_sim::pool`): worker count comes from `CGCT_JOBS` or the
//! machine's available parallelism, and `--serial` forces a one-worker
//! in-order run. Output is byte-identical whatever the worker count —
//! only `timing.json` (per-item wall clock, written next to the other
//! `--json` artifacts) varies run over run.
//!
//! Every simulated cell goes through the content-addressed result cache
//! (`cgct_system::resultcache`) rooted at `CGCT_CACHE_DIR` (default
//! `.cgct-cache`): a warm re-run restores every cell from disk and
//! produces byte-identical artifacts without simulating. `--no-cache`
//! or `CGCT_CACHE=0` disables it; tracing and sanitizing runs bypass
//! it automatically (they exist to exercise the simulator).

use cgct::StorageModel;
use cgct_bench::timing::TimingLog;
use cgct_bench::{full_plan, prepare_output_dir, quick_plan};
use cgct_interconnect::LatencyModel;
use cgct_sim::pool;
use cgct_system::experiments::{
    fig10, fig2, fig7, half_size_mode, rca_stats, speedups, standard_modes, summary_reductions,
    Suite,
};
use cgct_system::report::{
    markdown_table, progress_line, render_fig10, render_fig2, render_fig6, render_fig7,
    render_rca_stats, render_speedups, render_table1, render_table2,
};
use cgct_system::{CoherenceMode, RunPlan, SystemConfig};
use cgct_workloads::{table4, BenchmarkSpec};
use std::time::Instant;

struct Args {
    command: String,
    /// Positional operand after the command (`run <benchmark>`,
    /// `cache <gc>`).
    operand: Option<String>,
    quick: bool,
    serial: bool,
    sanitize: bool,
    no_cache: bool,
    mode: Option<String>,
    seed: Option<u64>,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    resume: Option<String>,
    stop_after: Option<u64>,
    json_dir: Option<String>,
    trace_dir: Option<String>,
}

fn parse_u64(flag: &str, value: Option<String>) -> u64 {
    match value.and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("error: {flag} needs a number");
            std::process::exit(2);
        }
    }
}

/// Every command `main` dispatches; anything else is rejected up front.
const COMMANDS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "fig2",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "rca-stats",
    "ablations",
    "scalability",
    "energy",
    "region-sweep",
    "directory",
    "sectoring",
    "diag",
    "all",
    "run",
    "cache",
];

fn parse_args() -> Args {
    let mut command = "all".to_string();
    let mut operand = None;
    let mut positionals = 0usize;
    let mut quick = false;
    let mut serial = false;
    let mut sanitize = false;
    let mut no_cache = false;
    let mut mode = None;
    let mut seed = None;
    let mut checkpoint = None;
    let mut checkpoint_every = None;
    let mut resume = None;
    let mut stop_after = None;
    let mut json_dir = None;
    let mut trace_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: experiments <command> [--quick] [--serial] [--json <dir>]\n\n\
                     commands:\n\
                       table1 table2 table3 table4    analytic tables\n\
                       fig2 fig6 fig7 fig8 fig9 fig10 the paper's figures\n\
                       rca-stats                      §3.2/§5.2 statistics\n\
                       ablations                      design-choice ablations\n\
                       scalability                    4-64-node scale-out sweep\n\
                       energy                         §6 energy estimate\n\
                       region-sweep                   64B-4KB region sizes\n\
                       directory                      snoop vs CGCT vs directory\n\
                       sectoring                      sectored-cache miss ratios\n\
                       diag                           calibration diagnostics\n\
                       all                            everything, paper order\n\
                       run <benchmark>                one cell, checkpointable\n\
                       cache gc                       prune stale cache entries\n\n\
                     --quick    scaled-down plan (CI-friendly)\n\
                     --serial   one worker, in-order (same output, no threads)\n\
                     --sanitize runtime coherence sanitizer: re-check the\n\
                                global coherence invariants during every\n\
                                run (same output, slower)\n\
                     --json     also dump machine-readable results to <dir>\n\
                     --trace    record per-request lifetime traces and write\n\
                                chrome_trace.json / trace_summary.json /\n\
                                trace_report.md to <dir> (implies CGCT_TRACE=1;\n\
                                all other outputs stay byte-identical)\n\
                     --no-cache bypass the content-addressed result cache\n\
                                (also CGCT_CACHE=0; tracing/sanitizing runs\n\
                                bypass it automatically)\n\n\
                     run-command flags (see EXPERIMENTS.md):\n\
                     --mode <label>        baseline | cgct-<N>B | scaled-<N>B |\n\
                                           regionscout-<N>B | directory |\n\
                                           dir-cgct-<N>B | hier-<N>B\n\
                     --seed <n>            root seed (default: the plan's)\n\
                     --checkpoint <file>   write a snapshot at each pause\n\
                     --checkpoint-every <cycles>\n\
                                           pause/snapshot cadence\n\
                     --resume <file>       continue from a snapshot\n\
                     --stop-after <k>      exit after k segments (interrupt)\n\n\
                     CGCT_JOBS=<n> overrides the worker count (default: all cores)\n\
                     CGCT_CACHE_DIR=<dir> result-cache root (default .cgct-cache)"
                );
                std::process::exit(0);
            }
            "--quick" => quick = true,
            "--serial" => serial = true,
            "--sanitize" => sanitize = true,
            "--no-cache" => no_cache = true,
            "--mode" => mode = it.next(),
            "--seed" => seed = Some(parse_u64("--seed", it.next())),
            "--checkpoint" => checkpoint = it.next(),
            "--checkpoint-every" => {
                checkpoint_every = Some(parse_u64("--checkpoint-every", it.next()));
            }
            "--resume" => resume = it.next(),
            "--stop-after" => stop_after = Some(parse_u64("--stop-after", it.next())),
            "--json" => json_dir = it.next(),
            "--trace" => trace_dir = it.next(),
            c if !c.starts_with('-') => {
                match positionals {
                    0 => command = c.to_string(),
                    1 => operand = Some(c.to_string()),
                    _ => {
                        eprintln!("unexpected argument {c}");
                        std::process::exit(2);
                    }
                }
                positionals += 1;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    if !COMMANDS.contains(&command.as_str()) {
        eprintln!("unknown command {command} (see --help)");
        std::process::exit(2);
    }
    Args {
        command,
        operand,
        quick,
        serial,
        sanitize,
        no_cache,
        mode,
        seed,
        checkpoint,
        checkpoint_every,
        resume,
        stop_after,
        json_dir,
        trace_dir,
    }
}

fn dump_json(dir: &Option<String>, name: &str, value: &dyn cgct_sim::ToJson) {
    if let Some(dir) = dir {
        let path = format!("{dir}/{name}.json");
        if let Err(e) = std::fs::write(&path, value.to_json().dump_pretty()) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}

/// Live progress line on stderr: `done/total | elapsed | rate | ETA`.
struct Progress {
    t0: Instant,
}

impl Progress {
    fn start() -> Progress {
        Progress { t0: Instant::now() }
    }

    /// Renders one `\r`-overwritten update (called from worker threads).
    fn tick(&self, done: usize, total: usize) {
        eprint!(
            "\r{}    ",
            progress_line(done, total, self.t0.elapsed().as_secs_f64())
        );
    }

    /// Terminates the progress line.
    fn finish(&self) {
        eprintln!();
    }
}

/// Pool-maps `f` over `items`, recording per-item wall time under
/// `prefix:<label>` and showing a live progress line. `stats` extracts
/// the simulated cycles an item covered, the memory events it
/// delivered, and whether the cell was restored from the result cache
/// (for the timing log's throughput and `cache_hit` columns); return
/// `None` for non-simulation work.
fn run_pooled<T, R, F>(
    jobs: usize,
    prefix: &str,
    labels: Vec<String>,
    items: Vec<T>,
    f: F,
    stats: impl Fn(&R) -> Option<(u64, u64, bool)>,
    timing: &mut TimingLog,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let seconds = std::sync::Mutex::new(vec![0.0f64; items.len()]);
    let progress = Progress::start();
    let out = pool::run_observed(jobs, items, f, |report| {
        seconds.lock().expect("timing poisoned")[report.index] = report.seconds;
        progress.tick(report.done, report.total);
    });
    progress.finish();
    let per_item = seconds.into_inner().unwrap();
    for ((label, secs), result) in labels.into_iter().zip(per_item).zip(&out) {
        match stats(result) {
            Some((c, e, hit)) => timing.record_run(format!("{prefix}:{label}"), secs, c, e, hit),
            None => timing.record(format!("{prefix}:{label}"), secs),
        }
    }
    out
}

/// Per-section result-cache report on stderr: cells restored from the
/// cache vs actually simulated since the last report. Silent when the
/// cache is off or the section simulated nothing.
fn cache_report(section: &str) {
    if let Some(cache) = cgct_system::resultcache::global() {
        let (hits, misses) = (cache.hits(), cache.misses());
        if hits + misses > 0 {
            eprintln!("[cache] {section}: {hits} cells restored, {misses} simulated");
        }
        cache.reset_counts();
    }
}

/// Benchmark × mode work list in canonical (benchmark-major) order,
/// with matching `bench/mode` labels.
fn cross_product(
    benchmarks: &[BenchmarkSpec],
    modes: &[CoherenceMode],
) -> (Vec<String>, Vec<(BenchmarkSpec, CoherenceMode)>) {
    let mut labels = Vec::new();
    let mut items = Vec::new();
    for spec in benchmarks {
        for &mode in modes {
            labels.push(format!("{}/{}", spec.name, mode.label()));
            items.push((spec.clone(), mode));
        }
    }
    (labels, items)
}

fn print_table3() {
    // Table 3 is the configuration itself: print the defaults in use.
    let cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
        region_bytes: 512,
        sets: 8192,
    });
    let rows = vec![
        vec![
            "cores per chip".into(),
            cfg.topology.cores_per_chip.to_string(),
        ],
        vec![
            "chips per data switch".into(),
            cfg.topology.chips_per_switch.to_string(),
        ],
        vec![
            "total processors".into(),
            cfg.topology.total_cores().to_string(),
        ],
        vec!["L1 I-cache".into(), "32KB 4-way, 64B lines, 1 cycle".into()],
        vec![
            "L1 D-cache".into(),
            "64KB 4-way, 64B lines, 1 cycle (writeback)".into(),
        ],
        vec![
            "L2 cache".into(),
            "1MB 2-way, 64B lines, 12 cycles (writeback)".into(),
        ],
        vec![
            "pipeline".into(),
            format!(
                "{}-wide, ROB {}, window {}, LSQ {}",
                cfg.core.issue_width, cfg.core.rob, cfg.core.issue_window, cfg.core.lsq
            ),
        ],
        vec![
            "branch prediction".into(),
            "16K gshare, 4Kx4 BTB, 8-entry RAS".into(),
        ],
        vec!["snoop latency".into(), "16 system cycles (106ns)".into()],
        vec!["DRAM latency".into(), "16 system cycles (106ns)".into()],
        vec![
            "DRAM overlapped with snoop".into(),
            "7 system cycles (47ns)".into(),
        ],
        vec![
            "RCA".into(),
            "8192 sets, 2-way (16K entries); regions 256B/512B/1KB".into(),
        ],
        vec![
            "direct request latency".into(),
            "1 cpu cycle / 2 / 4 / 6 system cycles by distance".into(),
        ],
        vec![
            "prefetching".into(),
            "Power4-style 8 streams x 5-line runahead + exclusive prefetch".into(),
        ],
    ];
    println!("## Table 3 — simulation parameters\n");
    println!("{}", markdown_table(&["parameter", "value"], &rows));
}

fn print_table4() {
    println!("## Table 4 — benchmarks\n");
    let rows: Vec<Vec<String>> = table4()
        .into_iter()
        .map(|b| {
            vec![
                b.category.to_string(),
                b.name.to_string(),
                b.comments.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        markdown_table(&["category", "benchmark", "comments"], &rows)
    );
}

fn diag(plan: RunPlan) {
    use cgct_system::run_once;
    println!("benchmark | mode | ipc | l2 MPKI | reqs/kinstr (d/w/i/z) | pf/kinstr | bcast/kinstr | demand lat | avoided | runtime");
    for spec in cgct_workloads::all_benchmarks() {
        for mode in [
            CoherenceMode::Baseline,
            CoherenceMode::Cgct {
                region_bytes: 512,
                sets: 8192,
            },
        ] {
            let cfg = SystemConfig::paper_default(mode);
            let r = run_once(&cfg, &spec, 1, &plan);
            let ki = r.committed as f64 / 1000.0;
            println!(
                "{} | {} | {:.3} | {:.1} | {:.1} ({:.1}/{:.1}/{:.1}/{:.1}) | {:.1} | {:.1} | {:.0} | {:.1}% | {}",
                r.benchmark,
                r.mode,
                r.ipc,
                r.metrics.l2_misses as f64 / ki,
                r.metrics.requests.total() as f64 / ki,
                r.metrics.requests.data as f64 / ki,
                r.metrics.requests.writeback as f64 / ki,
                r.metrics.requests.ifetch as f64 / ki,
                r.metrics.requests.dcb as f64 / ki,
                r.metrics.prefetches as f64 / ki,
                r.metrics.broadcasts as f64 / ki,
                r.metrics.demand_latency.mean(),
                r.metrics.avoided_fraction() * 100.0,
                r.runtime_cycles,
            );
            if r.metrics.avoided_fraction() > 0.0 {
                let ki2 = ki;
                println!(
                    "    avoided/kinstr: data {:.1} wb {:.1} ifetch {:.1} dcb {:.1} (direct {:.1} local {:.1})",
                    (r.metrics.direct.data + r.metrics.local.data) as f64 / ki2,
                    (r.metrics.direct.writeback + r.metrics.local.writeback) as f64 / ki2,
                    (r.metrics.direct.ifetch + r.metrics.local.ifetch) as f64 / ki2,
                    (r.metrics.direct.dcb + r.metrics.local.dcb) as f64 / ki2,
                    r.metrics.direct.total() as f64 / ki2,
                    r.metrics.local.total() as f64 / ki2,
                );
            }
        }
    }
}

/// `cache gc`: prune result-cache entries that can never hit again
/// (stale code fingerprint, corrupt, truncated) and report bytes
/// reclaimed. Operates on `CGCT_CACHE_DIR` regardless of whether the
/// cache is enabled for runs.
fn run_cache_command(args: &Args) {
    match args.operand.as_deref() {
        Some("gc") => {
            let dir = cgct_system::config::env_knobs()
                .cache_dir
                .unwrap_or_else(|| ".cgct-cache".to_string());
            let cache = cgct_system::ResultCache::new(dir.clone().into());
            match cache.gc() {
                Ok(r) => println!(
                    "cache gc: {dir}: scanned {} entries, kept {}, removed {}, reclaimed {} bytes",
                    r.scanned, r.kept, r.removed, r.bytes_reclaimed
                ),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!(
                "error: unknown cache subcommand {:?} (try: cache gc)",
                other.unwrap_or("<none>")
            );
            std::process::exit(2);
        }
    }
}

/// Parses a coherence-mode label of the kind `CoherenceMode::label`
/// prints (`baseline`, `cgct-512B`, `scaled-256B`, `regionscout-1024B`,
/// `directory`, `dir-cgct-512B`, `hier-512B`).
fn parse_mode(label: &str) -> CoherenceMode {
    let size = |s: &str| s.strip_suffix('B').and_then(|n| n.parse::<u64>().ok());
    match label {
        "baseline" => return CoherenceMode::Baseline,
        "directory" => return CoherenceMode::Directory,
        _ => {
            if let Some(rb) = label.strip_prefix("cgct-").and_then(size) {
                return CoherenceMode::Cgct {
                    region_bytes: rb,
                    sets: 8192,
                };
            }
            if let Some(rb) = label.strip_prefix("scaled-").and_then(size) {
                return CoherenceMode::Scaled {
                    region_bytes: rb,
                    sets: 8192,
                };
            }
            if let Some(rb) = label.strip_prefix("regionscout-").and_then(size) {
                return CoherenceMode::RegionScout { region_bytes: rb };
            }
            if let Some(rb) = label.strip_prefix("dir-cgct-").and_then(size) {
                return CoherenceMode::DirectoryCgct {
                    region_bytes: rb,
                    sets: 8192,
                };
            }
            if let Some(rb) = label.strip_prefix("hier-").and_then(size) {
                return CoherenceMode::Hierarchical {
                    region_bytes: rb,
                    sets: 8192,
                };
            }
        }
    }
    eprintln!(
        "error: unknown mode '{label}' \
         (baseline | cgct-<N>B | scaled-<N>B | regionscout-<N>B | directory \
         | dir-cgct-<N>B | hier-<N>B)"
    );
    std::process::exit(2);
}

/// Writes `contents` to `path` atomically (temp + rename), so an
/// interrupted process never leaves a truncated checkpoint behind.
fn write_atomic(path: &str, contents: &str) {
    let temp = format!("{path}.tmp-{}", std::process::id());
    let write = std::fs::write(&temp, contents).and_then(|()| std::fs::rename(&temp, path));
    if let Err(e) = write {
        let _ = std::fs::remove_file(&temp);
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// `run <benchmark>`: one checkpointable cell. Prints the RunResult
/// snapshot (one deterministic JSON line) on completion, so a resumed
/// run is byte-comparable to an uninterrupted one. `--checkpoint-every
/// N` pauses every N cycles and (with `--checkpoint FILE`) writes a
/// snapshot; `--stop-after K` exits after K segments (a controlled
/// interruption); `--resume FILE` continues from a snapshot.
fn run_single(plan: RunPlan, args: &Args) {
    use cgct_sim::{Json, Snap};
    use cgct_system::{CheckpointRun, Machine};
    let mode = parse_mode(args.mode.as_deref().unwrap_or("baseline"));
    let cfg = SystemConfig::paper_default(mode);
    let or_die = |r: Result<CheckpointRun, String>| {
        r.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        })
    };
    let mut run = if let Some(path) = &args.resume {
        let parsed = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e:?}")));
        match parsed {
            Ok(v) => {
                // Benchmark comes from the snapshot itself; the operand
                // (if given) and config must agree or restore fails.
                let bench: String = v
                    .get("machine")
                    .and_then(|m| m.get("benchmark"))
                    .and_then(|b| b.as_str())
                    .unwrap_or_default()
                    .to_string();
                let spec = cgct_workloads::by_name(&bench).unwrap_or_else(|| {
                    eprintln!("error: snapshot names unknown benchmark '{bench}'");
                    std::process::exit(1);
                });
                or_die(CheckpointRun::resume(cfg, &spec, &v))
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let bench = args.operand.clone().unwrap_or_else(|| {
            eprintln!("error: run needs a benchmark name (or --resume <file>)");
            std::process::exit(2);
        });
        let spec = cgct_workloads::by_name(&bench).unwrap_or_else(|| {
            eprintln!("error: unknown benchmark '{bench}'");
            std::process::exit(2);
        });
        let seed = args.seed.unwrap_or(plan.base_seed);
        or_die(CheckpointRun::new(
            Machine::new(cfg, &spec, seed),
            plan.warmup_per_core,
            plan.instructions_per_core,
            plan.max_cycles,
        ))
    };
    let segment = args.checkpoint_every.unwrap_or(u64::MAX);
    let mut segments = 0u64;
    loop {
        let done = run.step(segment);
        segments += 1;
        if done {
            break;
        }
        if let Some(path) = &args.checkpoint {
            let snap = run.snapshot().unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            write_atomic(path, &snap.dump());
        }
        if args.stop_after.is_some_and(|k| segments >= k) {
            eprintln!(
                "paused after {segments} segment(s) at cycle {} ({})",
                run.machine().now().0,
                match &args.checkpoint {
                    Some(path) => format!("checkpoint in {path}"),
                    None => "no --checkpoint file; state discarded".to_string(),
                }
            );
            return;
        }
    }
    let result = run.finish().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "completed in {segments} segment(s): {} cycles, {} instructions",
        result.runtime_cycles, result.committed
    );
    println!("{}", result.snap().dump());
}

fn main() {
    let args = parse_args();
    if args.serial {
        // Force every pool in the process (including library-internal
        // fan-outs like rca_stats) down to one in-order worker.
        std::env::set_var("CGCT_JOBS", "1");
    }
    if args.sanitize {
        // Every MemorySystem in the process re-checks the global
        // coherence invariants as it runs (read-only: outputs must be
        // byte-identical, the runs just take longer).
        std::env::set_var("CGCT_SANITIZE", "1");
    }
    if args.trace_dir.is_some() {
        // Every Machine in the process records request-lifetime trace
        // events (pure observation: all non-trace outputs must be
        // byte-identical to an untraced run).
        std::env::set_var("CGCT_TRACE", "1");
    }
    if !args.no_cache && args.command != "diag" {
        // Default-ON content-addressed result cache. install_from_env
        // re-checks CGCT_CACHE / trace / sanitize (set above from the
        // flags), so a bypassed run never consults it.
        if cgct_system::resultcache::install_from_env() {
            let dir = cgct_system::resultcache::global().expect("installed").dir();
            eprintln!("result cache: {}", dir.display());
        }
    }
    if args.command == "cache" {
        run_cache_command(&args);
        return;
    }
    let jobs = pool::jobs();
    if let Some(dir) = &args.json_dir {
        if let Err(e) = prepare_output_dir(dir) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if let Some(dir) = &args.trace_dir {
        if let Err(e) = prepare_output_dir(dir) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    let plan: RunPlan = if args.quick {
        quick_plan()
    } else {
        full_plan()
    };
    let mut timing = TimingLog::new(jobs);
    // Request-lifetime trace reports, accumulated in canonical item
    // order (so the trace artifacts are deterministic under any
    // CGCT_JOBS) from the phases that keep their raw RunResults.
    let mut trace_reports: Vec<cgct_trace::TraceReport> = Vec::new();
    let t0 = Instant::now();
    let cmd = args.command.as_str();
    if cmd == "diag" {
        diag(plan);
        return;
    }
    if cmd == "run" {
        run_single(plan, &args);
        return;
    }
    let needs_suite = matches!(
        cmd,
        "all" | "fig2" | "fig7" | "fig8" | "fig9" | "fig10" | "rca-stats"
    );

    if matches!(cmd, "all" | "table1") {
        println!("## Table 1 — region protocol states\n");
        println!("{}", render_table1());
    }
    if matches!(cmd, "all" | "table2") {
        println!("## Table 2 — storage overhead (analytic; matches paper exactly)\n");
        println!("{}", render_table2(&StorageModel::paper_default()));
    }
    if matches!(cmd, "all" | "table3") {
        print_table3();
    }
    if matches!(cmd, "all" | "table4") {
        print_table4();
    }
    if matches!(cmd, "all" | "fig6") {
        println!("## Figure 6 — memory request latency (analytic)\n");
        println!("{}", render_fig6(&LatencyModel::paper_default()));
    }

    if needs_suite {
        eprintln!(
            "running suite: {} instructions/core x {} seeds ({} mode, {} worker{})...",
            plan.instructions_per_core,
            plan.runs,
            if args.quick { "quick" } else { "full" },
            jobs,
            if jobs == 1 { "" } else { "s" }
        );
        let mut modes = standard_modes();
        modes.push(half_size_mode());
        let suite_t0 = Instant::now();
        let progress = Progress::start();
        let suite = Suite::run_configured(
            plan,
            &modes,
            |c| c,
            jobs,
            |report| progress.tick(report.done, report.total),
        );
        progress.finish();
        timing.extend_runs(
            suite
                .timings
                .iter()
                .map(|(label, secs, cycles, events, hit)| {
                    (format!("suite:{label}"), *secs, *cycles, *events, *hit)
                }),
        );
        timing.record("phase:suite", suite_t0.elapsed().as_secs_f64());
        eprintln!("suite done in {:.1}s", t0.elapsed().as_secs_f64());
        cache_report("suite");
        if args.trace_dir.is_some() {
            for bench in suite.benchmarks() {
                for mode in &modes {
                    for run in &suite.get(&bench, &mode.label()).runs {
                        if let Some(t) = &run.trace {
                            let mut t = t.clone();
                            t.label = format!("suite:{}", t.label);
                            trace_reports.push(t);
                        }
                    }
                }
            }
        }

        if matches!(cmd, "all" | "fig2") {
            let rows = fig2(&suite);
            println!("## Figure 2 — unnecessary broadcasts (baseline, oracle)\n");
            println!("{}", render_fig2(&rows));
            dump_json(&args.json_dir, "fig2", &rows);
        }
        if matches!(cmd, "all" | "fig7") {
            let sizes = [256, 512, 1024];
            let rows = fig7(&suite, &sizes);
            println!("## Figure 7 — broadcasts avoided by CGCT\n");
            println!("{}", render_fig7(&rows, &sizes));
            dump_json(&args.json_dir, "fig7", &rows);
        }
        if matches!(cmd, "all" | "fig8") {
            let labels: Vec<String> = [256u64, 512, 1024]
                .iter()
                .map(|&rs| {
                    CoherenceMode::Cgct {
                        region_bytes: rs,
                        sets: 8192,
                    }
                    .label()
                })
                .collect();
            let rows = speedups(&suite, &labels);
            println!("## Figure 8 — run-time reduction by region size\n");
            println!("{}", render_speedups(&rows, &labels));
            for l in &labels {
                let (all, comm) = summary_reductions(&rows, l);
                println!("**{l}**: mean reduction all = {all:.1}%, commercial = {comm:.1}%\n");
            }
            println!("(paper, 512B: 8.8% all, 10.4% commercial, max 21.7% on TPC-W)\n");
            dump_json(&args.json_dir, "fig8", &rows);
        }
        if matches!(cmd, "all" | "fig9") {
            let labels = vec![
                CoherenceMode::Cgct {
                    region_bytes: 512,
                    sets: 8192,
                }
                .label(),
                half_size_mode().label(),
            ];
            let rows = speedups(&suite, &labels);
            println!("## Figure 9 — full vs half-size RCA (512B regions)\n");
            println!("{}", render_speedups(&rows, &labels));
            for l in &labels {
                let (all, comm) = summary_reductions(&rows, l);
                println!("**{l}**: mean reduction all = {all:.1}%, commercial = {comm:.1}%\n");
            }
            println!("(paper: 8.8% -> 7.8% all, 10.4% -> 9.1% commercial)\n");
            dump_json(&args.json_dir, "fig9", &rows);
        }
        if matches!(cmd, "all" | "fig10") {
            let rows = fig10(&suite);
            println!("## Figure 10 — broadcast traffic\n");
            println!("{}", render_fig10(&rows, 100_000));
            dump_json(&args.json_dir, "fig10", &rows);
        }
        if matches!(cmd, "all" | "rca-stats") {
            let rca_t0 = Instant::now();
            let rows = rca_stats(&suite);
            timing.record("phase:rca-stats", rca_t0.elapsed().as_secs_f64());
            cache_report("rca-stats");
            println!("## RCA statistics (§3.2, §5.2)\n");
            println!("{}", render_rca_stats(&rows));
            println!("(paper: 65.1% empty / 17.2% one line / 5.1% two; ~1.2% miss-ratio increase; 2.8-5 lines/region)\n");
            dump_json(&args.json_dir, "rca_stats", &rows);
        }
    }

    let phase = |name: &str, timing: &mut TimingLog, f: &mut dyn FnMut(usize, &mut TimingLog)| {
        let t = Instant::now();
        f(jobs, timing);
        timing.record(format!("phase:{name}"), t.elapsed().as_secs_f64());
        cache_report(name);
    };
    if matches!(cmd, "all" | "ablations") {
        phase("ablations", &mut timing, &mut |jobs, timing| {
            run_ablations(plan, &args, jobs, timing)
        });
    }
    if matches!(cmd, "all" | "scalability") {
        phase("scalability", &mut timing, &mut |jobs, timing| {
            run_scalability(plan, &args, jobs, timing)
        });
    }
    if matches!(cmd, "all" | "energy") {
        phase("energy", &mut timing, &mut |jobs, timing| {
            run_energy(plan, &args, jobs, timing)
        });
    }
    if matches!(cmd, "all" | "region-sweep") {
        phase("region-sweep", &mut timing, &mut |jobs, timing| {
            run_region_sweep(plan, &args, jobs, timing)
        });
    }
    if matches!(cmd, "all" | "directory") {
        let traces = &mut trace_reports;
        phase("directory", &mut timing, &mut |jobs, timing| {
            run_directory_comparison(plan, &args, jobs, timing, traces)
        });
    }
    if matches!(cmd, "all" | "sectoring") {
        phase("sectoring", &mut timing, &mut |jobs, timing| {
            run_sectoring_comparison(plan, &args, jobs, timing)
        });
    }

    if let Some(dir) = &args.trace_dir {
        let write = |name: &str, contents: String| {
            let path = format!("{dir}/{name}");
            if let Err(e) = std::fs::write(&path, contents) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        };
        write(
            "chrome_trace.json",
            cgct_trace::report::chrome_trace(&trace_reports).dump(),
        );
        write(
            "trace_summary.json",
            cgct_trace::report::summary(&trace_reports).dump_pretty(),
        );
        write(
            "trace_report.md",
            cgct_trace::report::markdown_report(&trace_reports),
        );
    }
    if let Some(dir) = &args.json_dir {
        timing.record("phase:total", t0.elapsed().as_secs_f64());
        match timing.write(dir) {
            Ok(path) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("error: cannot write {dir}/timing.json: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("total {:.1}s", t0.elapsed().as_secs_f64());
}

/// Sectored-cache comparison (related work, §2): sectoring shares one
/// tag per 512 B and pays internal fragmentation in miss ratio; CGCT
/// tracks regions *beyond* the cache and leaves the miss ratio alone.
fn run_sectoring_comparison(plan: RunPlan, args: &Args, jobs: usize, timing: &mut TimingLog) {
    use cgct_cache::{Addr, ConventionalCache, Geometry, SectoredCache};
    use cgct_cpu::UopSource;
    use cgct_workloads::WorkloadThread;
    println!("## Sectored vs conventional cache (related work §2)\n");
    let geom = Geometry::new(64, 512);
    let accesses = (plan.instructions_per_core as usize).max(50_000);
    let benchmarks = cgct_workloads::all_benchmarks();
    let labels: Vec<String> = benchmarks.iter().map(|b| b.name.to_string()).collect();
    let mut rows = run_pooled(
        jobs,
        "sectoring",
        labels,
        benchmarks,
        |_, spec| {
            let mut conventional = ConventionalCache::new(1024 * 1024, 2, geom);
            let mut sectored = SectoredCache::new(1024 * 1024, 2, geom);
            let mut thread = WorkloadThread::new(spec.clone(), 0, 4, plan.base_seed);
            let mut seen = 0usize;
            while seen < accesses {
                if let Some(a) = thread.next_uop().kind.mem_addr() {
                    let line = geom.line_of(Addr(a.0));
                    conventional.access(line);
                    sectored.access(line);
                    seen += 1;
                }
            }
            let delta = if conventional.miss_ratio() > 0.0 {
                (sectored.miss_ratio() - conventional.miss_ratio()) / conventional.miss_ratio()
            } else {
                0.0
            };
            vec![
                spec.name.to_string(),
                format!("{:.2}%", conventional.miss_ratio() * 100.0),
                format!("{:.2}%", sectored.miss_ratio() * 100.0),
                format!("{:+.0}%", delta * 100.0),
                format!("{:.2}", sectored.mean_sector_occupancy()),
            ]
        },
        |_| None,
        timing,
    );
    // A sparse pointer-chase (one line per sector over 2x the cache):
    // the workload class where sectoring's fragmentation bites hardest.
    {
        let mut conventional = ConventionalCache::new(1024 * 1024, 2, geom);
        let mut sectored = SectoredCache::new(1024 * 1024, 2, geom);
        let sectors = 2 * 1024 * 1024 / 512; // 2 MB footprint
        let mut x = 1u64;
        for _ in 0..accesses {
            // LCG walk over sectors; slot varies with the sector id so
            // conventional sets spread uniformly.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let sector = (x >> 33) % sectors;
            let slot = (x >> 13) % 8; // independent of the sector bits
            let line = cgct_cache::LineAddr(sector * 8 + slot);
            conventional.access(line);
            sectored.access(line);
        }
        let delta = (sectored.miss_ratio() - conventional.miss_ratio()) / conventional.miss_ratio();
        rows.push(vec![
            "sparse pointer-chase".into(),
            format!("{:.2}%", conventional.miss_ratio() * 100.0),
            format!("{:.2}%", sectored.miss_ratio() * 100.0),
            format!("{:+.0}%", delta * 100.0),
            format!("{:.2}", sectored.mean_sector_occupancy()),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "benchmark",
                "conventional miss ratio",
                "sectored miss ratio",
                "relative increase",
                "lines/sector resident",
            ],
            &rows
        )
    );
    println!(
        "(The Table 4 workloads are spatially dense, so sectoring costs them\nlittle; the sparse pointer-chase shows the fragmentation failure mode\nthe paper cites. CGCT's own inclusion cost on the same 1MB cache is\n~0-1% — see the RCA statistics table.)\n"
    );
    dump_json(&args.json_dir, "sectoring", &rows);
}

/// Snooping vs CGCT vs full-map directory (§1.2): the directory gets the
/// same low-latency unshared access as CGCT but pays three hops for
/// cache-to-cache data, which is exactly the trade-off the paper claims
/// CGCT sidesteps.
fn run_directory_comparison(
    plan: RunPlan,
    args: &Args,
    jobs: usize,
    timing: &mut TimingLog,
    traces: &mut Vec<cgct_trace::TraceReport>,
) {
    use cgct_system::run_once_cached;
    println!("## Snooping vs CGCT vs directory (§1.2 comparison)\n");
    let modes = [
        CoherenceMode::Baseline,
        CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        },
        CoherenceMode::Directory,
        CoherenceMode::DirectoryCgct {
            region_bytes: 512,
            sets: 8192,
        },
    ];
    // One work item per (benchmark, mode) cell, benchmark-major; rows
    // fold from canonical-order chunks of three.
    let (labels, items) = cross_product(&cgct_workloads::all_benchmarks(), &modes);
    let results: Vec<_> = run_pooled(
        jobs,
        "directory",
        labels,
        items,
        |_, (spec, mode)| {
            let cfg = SystemConfig::paper_default(mode);
            run_once_cached(&cfg, &spec, plan.base_seed, &plan)
        },
        |(r, hit)| Some((r.runtime_cycles, r.mem_events, *hit)),
        timing,
    )
    .into_iter()
    .map(|(r, _)| r)
    .collect();
    if args.trace_dir.is_some() {
        // Canonical order is guaranteed by run_pooled (item order, not
        // completion order), so the trace summary is deterministic
        // under any CGCT_JOBS.
        for r in &results {
            if let Some(t) = &r.trace {
                let mut t = t.clone();
                t.label = format!("directory:{}", t.label);
                traces.push(t);
            }
        }
    }
    let mut rows = Vec::new();
    for chunk in results.chunks(modes.len()) {
        let base_runtime = chunk[0].runtime_cycles as f64;
        let mut cells = vec![chunk[0].benchmark.clone()];
        cells.push(format!("{:.0}", chunk[0].metrics.demand_latency.mean()));
        for r in &chunk[1..] {
            cells.push(format!(
                "{:.1}%",
                100.0 * (1.0 - r.runtime_cycles as f64 / base_runtime)
            ));
            cells.push(format!("{:.0}", r.metrics.demand_latency.mean()));
        }
        // Region claims let the region-tracking directory skip the home
        // lookup entirely; report how often.
        let dc = &chunk[3];
        let looked = dc.metrics.dir_lookups + dc.metrics.dir_bypasses;
        cells.push(format!(
            "{:.1}%",
            100.0 * dc.metrics.dir_bypasses as f64 / looked.max(1) as f64
        ));
        rows.push(cells);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "benchmark",
                "snoop latency",
                "cgct reduction",
                "cgct latency",
                "directory reduction",
                "directory latency",
                "dir-cgct reduction",
                "dir-cgct latency",
                "lookup bypass",
            ],
            &rows
        )
    );
    dump_json(&args.json_dir, "directory", &rows);
}

/// Region-size sweep beyond the paper's three points (64 B = line-grain
/// tracking, up to 4 KB = page-grain): exposes the trade-off between
/// spatial coverage and false region-sharing that makes mid-size regions
/// the sweet spot.
fn run_region_sweep(plan: RunPlan, args: &Args, jobs: usize, timing: &mut TimingLog) {
    use cgct_system::run_once_cached;
    println!("## Region-size sweep (64B - 4KB, mean across benchmarks)\n");
    let benchmarks = cgct_workloads::all_benchmarks();
    let base_runtime: Vec<f64> = run_pooled(
        jobs,
        "region-sweep-base",
        benchmarks.iter().map(|b| b.name.to_string()).collect(),
        benchmarks.clone(),
        |_, spec| {
            let cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
            let (r, hit) = run_once_cached(&cfg, &spec, plan.base_seed, &plan);
            (r.runtime_cycles, r.mem_events, hit)
        },
        |(rt, ev, hit)| Some((*rt, *ev, *hit)),
        timing,
    )
    .into_iter()
    .map(|(rt, _, _)| rt as f64)
    .collect();
    eprintln!("region-sweep baselines done");
    let sizes = [64u64, 128, 256, 512, 1024, 2048, 4096];
    // Region-major item order; per-region sums fold from canonical
    // chunks, so the (order-sensitive) f64 accumulation matches a
    // serial sweep bit for bit.
    let mut labels = Vec::new();
    let mut items = Vec::new();
    for &region_bytes in &sizes {
        for spec in &benchmarks {
            labels.push(format!("{}B/{}", region_bytes, spec.name));
            items.push((region_bytes, spec.clone()));
        }
    }
    let results = run_pooled(
        jobs,
        "region-sweep",
        labels,
        items,
        |_, (region_bytes, spec)| {
            let cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
                region_bytes,
                sets: 8192,
            });
            let (r, hit) = run_once_cached(&cfg, &spec, plan.base_seed, &plan);
            (
                r.runtime_cycles as f64,
                r.metrics.avoided_fraction(),
                r.mem_events,
                hit,
            )
        },
        |(rt, _, ev, hit)| Some((*rt as u64, *ev, *hit)),
        timing,
    );
    let mut rows = Vec::new();
    let mut chart = Vec::new();
    for (size_idx, chunk) in results.chunks(benchmarks.len()).enumerate() {
        let region_bytes = sizes[size_idx];
        let mut reduction_sum = 0.0;
        let mut avoided_sum = 0.0;
        for ((runtime, avoided, _, _), base) in chunk.iter().zip(&base_runtime) {
            reduction_sum += 100.0 * (1.0 - runtime / base);
            avoided_sum += avoided * 100.0;
        }
        let n = benchmarks.len() as f64;
        rows.push(vec![
            format!("{region_bytes} B"),
            format!("{:.1}%", reduction_sum / n),
            format!("{:.1}%", avoided_sum / n),
        ]);
        chart.push((format!("{region_bytes}B"), reduction_sum / n));
    }
    println!(
        "{}",
        markdown_table(
            &[
                "region size",
                "mean runtime reduction",
                "mean requests avoided"
            ],
            &rows
        )
    );
    println!("```");
    println!("{}", cgct_system::report::ascii_bars(&chart, 40));
    println!("```");
    dump_json(&args.json_dir, "region_sweep", &rows);
}

/// Energy estimate (§6 future work): relative interconnect/memory energy
/// for baseline vs CGCT, including the RCA's own lookup overhead.
fn run_energy(plan: RunPlan, args: &Args, jobs: usize, timing: &mut TimingLog) {
    use cgct_system::energy::{energy_of, EnergyModel};
    use cgct_system::run_once_cached;
    println!("## Energy (§6 extension) — relative units, default weights\n");
    let weights = EnergyModel::default_weights();
    // Three configurations per benchmark: baseline, baseline+Jetty,
    // and CGCT-512B. Benchmark-major item order.
    let variants: Vec<(&str, SystemConfig)> = {
        let base_cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        let cgct_cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        });
        let mut jetty_cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        jetty_cfg.jetty_filter = true;
        vec![
            ("baseline", base_cfg),
            ("jetty", jetty_cfg),
            ("cgct", cgct_cfg),
        ]
    };
    let mut labels = Vec::new();
    let mut items = Vec::new();
    for spec in cgct_workloads::all_benchmarks() {
        for (tag, cfg) in &variants {
            labels.push(format!("{}/{tag}", spec.name));
            items.push((spec.clone(), cfg.clone()));
        }
    }
    let results: Vec<_> = run_pooled(
        jobs,
        "energy",
        labels,
        items,
        |_, (spec, cfg)| run_once_cached(&cfg, &spec, plan.base_seed, &plan),
        |(r, hit)| Some((r.runtime_cycles, r.mem_events, *hit)),
        timing,
    )
    .into_iter()
    .map(|(r, _)| r)
    .collect();
    let mut rows = Vec::new();
    for chunk in results.chunks(variants.len()) {
        let (base, jetty, cgct) = (&chunk[0], &chunk[1], &chunk[2]);
        let eb = energy_of(&base.metrics, 3, false, &weights);
        let ej = energy_of(&jetty.metrics, 3, false, &weights);
        let ec = energy_of(&cgct.metrics, 3, true, &weights);
        // Totals are exact integer milli-units; floats appear only here,
        // at format time (milli -> units -> kilo-units).
        let base_total = (eb.total_milli() as f64).max(1000.0);
        let saving = 100.0 * (1.0 - ec.total_milli() as f64 / base_total);
        let jetty_saving = 100.0 * (1.0 - ej.total_milli() as f64 / base_total);
        rows.push(vec![
            base.benchmark.clone(),
            format!("{:.0}", eb.total_milli() as f64 / 1_000_000.0),
            format!(
                "{:.0} ({jetty_saving:+.1}%)",
                ej.total_milli() as f64 / 1_000_000.0
            ),
            format!("{:.0}", ec.total_milli() as f64 / 1_000_000.0),
            format!("{:.0}", ec.rca_overhead_milli as f64 / 1_000_000.0),
            format!("{saving:.1}%"),
        ]);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "benchmark",
                "baseline (ku)",
                "+jetty (ku)",
                "cgct-512B (ku)",
                "of which RCA (ku)",
                "cgct saving",
            ],
            &rows
        )
    );
    dump_json(&args.json_dir, "energy", &rows);
}

/// Scalability (§5.3 extended): the paper argues lower broadcast rates
/// improve scalability; here three machine organisations (flat
/// directory, directory+RCA lookup bypass, clustered hierarchy) are
/// swept from 4 to 64 nodes on the same workloads to locate the
/// crossover where snooping stops scaling.
fn run_scalability(plan: RunPlan, args: &Args, jobs: usize, timing: &mut TimingLog) {
    use cgct_interconnect::Topology;
    use cgct_system::run_once_cached;
    println!("## Scalability — 4 to 64 nodes, directory and hierarchical machines\n");
    // Broadcast snooping stops at the bus; past it the contenders are a
    // flat full-map directory, the same directory with region-tracking
    // lookup bypass (dir-cgct), and cluster-snooping with an
    // inter-cluster region directory (hier). Sweep all three across the
    // node counts the paper's §6 points toward.
    let modes = [
        CoherenceMode::Directory,
        CoherenceMode::DirectoryCgct {
            region_bytes: 512,
            sets: 8192,
        },
        CoherenceMode::Hierarchical {
            region_bytes: 512,
            sets: 8192,
        },
    ];
    let core_counts = [4usize, 8, 16, 32, 64];
    let benchmarks: Vec<BenchmarkSpec> = ["specjbb2000", "tpc-w", "barnes"]
        .iter()
        .map(|b| cgct_workloads::by_name(b).expect("benchmark"))
        .collect();
    let mut labels = Vec::new();
    let mut items = Vec::new();
    for &cores in &core_counts {
        for spec in &benchmarks {
            for &mode in &modes {
                labels.push(format!("{cores}c/{}/{}", spec.name, mode.label()));
                items.push((cores, spec.clone(), mode));
            }
        }
    }
    let results: Vec<_> = run_pooled(
        jobs,
        "scalability",
        labels,
        items,
        |_, (cores, spec, mode)| {
            let mut cfg = SystemConfig::paper_default(mode);
            cfg.topology = Topology::for_cores(cores);
            run_once_cached(&cfg, &spec, plan.base_seed, &plan)
        },
        |(r, hit)| Some((r.runtime_cycles, r.mem_events, *hit)),
        timing,
    )
    .into_iter()
    .map(|(r, _)| r)
    .collect();
    let mut rows = Vec::new();
    for (ci, &cores) in core_counts.iter().enumerate() {
        for (bi, spec) in benchmarks.iter().enumerate() {
            let at = |mi: usize| &results[(ci * benchmarks.len() + bi) * modes.len() + mi];
            let (dir, dc, hier) = (at(0), at(1), at(2));
            let looked = dc.metrics.dir_bypasses + dc.metrics.dir_lookups;
            let (cl, cc) = (
                hier.metrics.cluster_local_requests,
                hier.metrics.cross_cluster_requests,
            );
            rows.push(vec![
                cores.to_string(),
                spec.name.to_string(),
                dir.runtime_cycles.to_string(),
                dc.runtime_cycles.to_string(),
                format!(
                    "{:.1}%",
                    100.0 * (1.0 - dc.runtime_cycles as f64 / dir.runtime_cycles as f64)
                ),
                format!(
                    "{:.1}%",
                    100.0 * dc.metrics.dir_bypasses as f64 / looked.max(1) as f64
                ),
                dc.metrics.three_hop_transfers.to_string(),
                hier.runtime_cycles.to_string(),
                cl.to_string(),
                cc.to_string(),
                hier.metrics.cluster_snoops_filtered.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        markdown_table(
            &[
                "nodes",
                "benchmark",
                "dir cycles",
                "dir-cgct cycles",
                "dir-cgct vs dir",
                "lookup bypass",
                "3-hop xfers",
                "hier cycles",
                "cluster-local",
                "cross-cluster",
                "hops saved",
            ],
            &rows
        )
    );
    println!(
        "(Lookup bypass = home-directory DRAM lookups skipped via region\nclaims; hops saved = cross-cluster snoop deliveries the inter-cluster\nregion directory filtered out.)\n"
    );
    dump_json(&args.json_dir, "scalability", &rows);
}

/// Ablations: the design choices §3 calls out, plus the cheaper variants.
fn run_ablations(plan: RunPlan, args: &Args, jobs: usize, timing: &mut TimingLog) {
    let cgct512 = CoherenceMode::Cgct {
        region_bytes: 512,
        sets: 8192,
    };
    println!("## Ablations (512B regions, mean run-time reduction vs baseline)\n");
    type Adjust = Box<dyn Fn(SystemConfig) -> SystemConfig + Sync>;
    let variants: Vec<(&str, Vec<CoherenceMode>, Adjust)> = vec![
        (
            "full CGCT",
            vec![CoherenceMode::Baseline, cgct512],
            Box::new(|c| c),
        ),
        (
            "no self-invalidation",
            vec![CoherenceMode::Baseline, cgct512],
            Box::new(|mut c: SystemConfig| {
                c.self_invalidation = false;
                c
            }),
        ),
        (
            "pure-LRU RCA replacement",
            vec![CoherenceMode::Baseline, cgct512],
            Box::new(|mut c: SystemConfig| {
                c.favor_empty_replacement = false;
                c
            }),
        ),
        (
            "broadcast write-backs",
            vec![CoherenceMode::Baseline, cgct512],
            Box::new(|mut c: SystemConfig| {
                c.direct_writebacks = false;
                c
            }),
        ),
        (
            "scaled 3-state protocol",
            vec![
                CoherenceMode::Baseline,
                CoherenceMode::Scaled {
                    region_bytes: 512,
                    sets: 8192,
                },
            ],
            Box::new(|c| c),
        ),
        (
            "RegionScout filter",
            vec![
                CoherenceMode::Baseline,
                CoherenceMode::RegionScout { region_bytes: 512 },
            ],
            Box::new(|c| c),
        ),
        (
            "+ shared-read bypass (§3.1)",
            vec![CoherenceMode::Baseline, cgct512],
            Box::new(|mut c: SystemConfig| {
                c.shared_read_bypass = true;
                c
            }),
        ),
        (
            "+ owner prediction (§6)",
            vec![CoherenceMode::Baseline, cgct512],
            Box::new(|mut c: SystemConfig| {
                c.owner_prediction = true;
                c
            }),
        ),
        (
            "+ region prefetch filter (§6)",
            vec![CoherenceMode::Baseline, cgct512],
            Box::new(|mut c: SystemConfig| {
                c.region_prefetch_filter = true;
                c
            }),
        ),
        (
            "+ DRAM speculation filter (§6)",
            vec![CoherenceMode::Baseline, cgct512],
            Box::new(|mut c: SystemConfig| {
                c.dram_speculation_filter = true;
                c
            }),
        ),
    ];
    let mut rows = Vec::new();
    for (name, modes, adjust) in &variants {
        let t0 = Instant::now();
        let suite = Suite::run_configured(plan, modes, adjust, jobs, |_| {});
        timing.record(format!("ablation:{name}"), t0.elapsed().as_secs_f64());
        let label = modes[1].label();
        let sp = speedups(&suite, std::slice::from_ref(&label));
        let (all, comm) = summary_reductions(&sp, &label);
        let avoided: f64 = suite
            .benchmarks()
            .iter()
            .map(|b| suite.get(b, &label).avoided_fraction.mean())
            .sum::<f64>()
            / 9.0;
        rows.push(vec![
            name.to_string(),
            format!("{all:.1}%"),
            format!("{comm:.1}%"),
            format!("{:.1}%", avoided * 100.0),
        ]);
        eprintln!("ablation '{name}' done");
    }
    println!(
        "{}",
        markdown_table(
            &[
                "variant",
                "mean reduction (all)",
                "mean reduction (commercial)",
                "requests avoided"
            ],
            &rows
        )
    );
    dump_json(&args.json_dir, "ablations", &rows);
}
