//! Explore any of the nine benchmarks under any coherence mode.
//!
//! ```text
//! cargo run --release --example benchmark_explorer -- tpc-b cgct 512
//! cargo run --release --example benchmark_explorer -- barnes baseline
//! cargo run --release --example benchmark_explorer -- ocean scaled 1024
//! cargo run --release --example benchmark_explorer -- tpc-w regionscout
//! cargo run --release --example benchmark_explorer -- tpc-b cgct 512 8
//! ```
//!
//! A fourth argument asks for that many perturbed seeds; they fan out
//! across the deterministic thread pool (`CGCT_JOBS` controls the
//! worker count) and are reported as mean ± 95% CI. The numbers do not
//! depend on the worker count — only on the seeds.

use cgct_system::{run_averaged, run_once, CoherenceMode, RunPlan, SystemConfig};
use cgct_workloads::{all_benchmarks, by_name};

fn usage() -> ! {
    eprintln!(
        "usage: benchmark_explorer <benchmark> [baseline|cgct|scaled|regionscout] [region_bytes] [runs]"
    );
    eprintln!(
        "benchmarks: {}",
        all_benchmarks()
            .iter()
            .map(|b| b.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = args.first().map(String::as_str).unwrap_or("tpc-b");
    let Some(spec) = by_name(bench) else { usage() };
    let mode_name = args.get(1).map(String::as_str).unwrap_or("cgct");
    let region: u64 = args
        .get(2)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(512);
    let mode = match mode_name {
        "baseline" => CoherenceMode::Baseline,
        "cgct" => CoherenceMode::Cgct {
            region_bytes: region,
            sets: 8192,
        },
        "scaled" => CoherenceMode::Scaled {
            region_bytes: region,
            sets: 8192,
        },
        "regionscout" => CoherenceMode::RegionScout {
            region_bytes: region,
        },
        _ => usage(),
    };

    let runs: u64 = args
        .get(3)
        .map(|s| s.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(1);
    if runs == 0 {
        usage()
    }

    let cfg = SystemConfig::paper_default(mode);
    let plan = RunPlan {
        warmup_per_core: 100_000,
        instructions_per_core: 60_000,
        max_cycles: 100_000_000,
        runs,
        base_seed: 7,
    };
    println!(
        "{} under {} ({} B regions), {} instructions/core after {} warmup",
        spec.name,
        mode.label(),
        mode.region_bytes(),
        plan.instructions_per_core,
        plan.warmup_per_core
    );

    if runs > 1 {
        // Multi-seed mode: fan the perturbed runs out across the pool
        // and report mean ± 95% CI instead of one run's detail.
        let jobs = cgct_sim::pool::jobs();
        println!("averaging {runs} perturbed seeds on {jobs} worker(s)");
        let agg = run_averaged(&cfg, &spec, &plan, jobs);
        let rt = agg.runtime.confidence_interval_95();
        println!();
        println!(
            "runtime:          {:.0} ± {:.0} cycles (95% CI over {} runs)",
            agg.runtime.mean(),
            rt.half_width(),
            agg.runs.len()
        );
        println!(
            "avoided fraction: {:.2}% ± {:.2}%",
            agg.avoided_fraction.mean() * 100.0,
            agg.avoided_fraction.confidence_interval_95().half_width() * 100.0
        );
        println!(
            "L2 miss ratio:    {:.2}% ± {:.2}%",
            agg.l2_miss_ratio.mean() * 100.0,
            agg.l2_miss_ratio.confidence_interval_95().half_width() * 100.0
        );
        println!(
            "avg traffic:      {:.1} broadcasts/window (peak {:.0})",
            agg.avg_traffic.mean(),
            agg.peak_traffic.max()
        );
        println!();
        println!("per-seed runtimes (seed order, identical for any CGCT_JOBS):");
        for (i, r) in agg.runs.iter().enumerate() {
            println!(
                "  seed {:>3}: {:>12} cycles (IPC {:.3})",
                plan.seed_for(i as u64),
                r.runtime_cycles,
                r.ipc
            );
        }
        return;
    }

    let r = run_once(&cfg, &spec, 7, &plan);

    let ki = r.committed as f64 / 1000.0;
    println!();
    println!(
        "runtime:            {} cycles (IPC {:.3})",
        r.runtime_cycles, r.ipc
    );
    println!("branch mispredict:  {:.2}%", r.mispredict_rate * 100.0);
    println!(
        "L2 miss ratio:      {:.2}%",
        r.metrics.l2_miss_ratio() * 100.0
    );
    println!(
        "demand latency:     {:.0} cycles mean",
        r.metrics.demand_latency.mean()
    );
    println!();
    println!("coherence-point requests per kilo-instruction:");
    println!(
        "  data reads/writes {:>7.2}",
        r.metrics.requests.data as f64 / ki
    );
    println!(
        "  write-backs       {:>7.2}",
        r.metrics.requests.writeback as f64 / ki
    );
    println!(
        "  ifetches          {:>7.2}",
        r.metrics.requests.ifetch as f64 / ki
    );
    println!(
        "  dcb ops           {:>7.2}",
        r.metrics.requests.dcb as f64 / ki
    );
    println!(
        "  prefetch issues   {:>7.2}",
        r.metrics.prefetches as f64 / ki
    );
    println!();
    println!(
        "broadcasts:         {} ({:.1} per kinstr; peak {}/100K cycles)",
        r.metrics.broadcasts,
        r.metrics.broadcasts as f64 / ki,
        r.metrics.peak_traffic()
    );
    println!(
        "sent direct:        {} | completed locally: {}",
        r.metrics.direct.total(),
        r.metrics.local.total()
    );
    println!(
        "avoided fraction:   {:.1}% of all requests",
        r.metrics.avoided_fraction() * 100.0
    );
    if r.metrics.unnecessary.total() > 0 {
        println!(
            "oracle-unnecessary: {:.1}% of all requests (of what was broadcast)",
            r.metrics.unnecessary_fraction() * 100.0
        );
    }
    println!(
        "cache-to-cache:     {} transfers | memory fills: {}",
        r.metrics.cache_to_cache, r.metrics.memory_fills
    );
    if r.rca.evictions > 0 {
        println!();
        println!("RCA behaviour:");
        println!(
            "  evicted regions: {} ({:.1}% empty, {:.1}% one line, {:.1}% two lines)",
            r.rca.evictions,
            r.rca.evicted_empty_fraction * 100.0,
            r.rca.evicted_one_line_fraction * 100.0,
            r.rca.evicted_two_lines_fraction * 100.0
        );
        println!(
            "  self-invalidations: {} | mean lines per region: {:.2}",
            r.rca.self_invalidations, r.rca.mean_lines_per_region
        );
    }
}
