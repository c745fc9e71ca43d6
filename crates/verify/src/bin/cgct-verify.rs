//! Exhaustive model checker for the MOESI × RCA coherence protocol.
//!
//! Explores every reachable global state of a small configuration with
//! the real transition functions and checks the safety invariants at
//! each one. Exits 0 on a clean fixpoint, 1 with a counterexample trace
//! on a violation (or on bad arguments). The summary line reports the
//! host seconds the exploration took and its states/s and
//! transitions/s.
//!
//! ```text
//! cgct-verify [--nodes N] [--lines L] [--protocol P] [--clusters C]
//!             [--mutate FAULT] [--no-self-invalidation]
//! ```
#![allow(clippy::disallowed_types)]
// ^ clippy mirror of D001 (clippy.toml): host-facing binary — the
// throughput line times the exploration, as cgct-lint exempts src/bin/.

use cgct_verify::checker::explore;
use cgct_verify::model::{GlobalState, ModelConfig, Mutation, Protocol};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: cgct-verify [options]

Exhaustively explores the reachable states of a small CGCT machine and
checks the coherence invariants at every state.

options:
  --nodes N                processor nodes, 2-4 (default 3)
  --lines L                lines per region, 1/2/4/8 (default 2)
  --protocol P             coherence machine: snoop (flat bus, default),
                           dir-cgct (full-map home directory + RCAs),
                           hierarchical (cluster buses + region filter)
  --clusters C             clusters for --protocol hierarchical (default 1)
  --mutate FAULT           inject a protocol fault; FAULT is one of
                           keep-stale-sharers, skip-external-downgrade,
                           leak-line-count, overclaim-exclusive,
                           stale-region-dir-cache (dir-cgct),
                           skip-cluster-invalidation (hierarchical), none
  --no-self-invalidation   disable region self-invalidation (ablation)
  -h, --help               print this help
";

fn parse(mut args: std::env::Args) -> Result<ModelConfig, String> {
    let mut cfg = ModelConfig::default_3x2();
    args.next(); // program name
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => {
                let v = args.next().ok_or("--nodes needs a value")?;
                cfg.nodes = v.parse().map_err(|_| format!("bad --nodes {v:?}"))?;
            }
            "--lines" => {
                let v = args.next().ok_or("--lines needs a value")?;
                cfg.lines = v.parse().map_err(|_| format!("bad --lines {v:?}"))?;
            }
            "--protocol" => {
                let v = args.next().ok_or("--protocol needs a value")?;
                cfg.protocol =
                    Protocol::from_name(&v).ok_or_else(|| format!("unknown protocol {v:?}"))?;
            }
            "--clusters" => {
                let v = args.next().ok_or("--clusters needs a value")?;
                cfg.clusters = v.parse().map_err(|_| format!("bad --clusters {v:?}"))?;
            }
            "--mutate" => {
                let v = args.next().ok_or("--mutate needs a value")?;
                cfg.mutation =
                    Mutation::from_name(&v).ok_or_else(|| format!("unknown mutation {v:?}"))?;
            }
            "--no-self-invalidation" => cfg.self_invalidation = false,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(2..=4).contains(&cfg.nodes) {
        return Err(format!("--nodes must be 2-4, got {}", cfg.nodes));
    }
    if !(cfg.lines.is_power_of_two() && (1..=8).contains(&cfg.lines)) {
        return Err(format!("--lines must be 1/2/4/8, got {}", cfg.lines));
    }
    if cfg.protocol == Protocol::Hierarchical {
        // A cluster per node degenerates to pairwise point-to-point; more
        // clusters than nodes is meaningless.
        if !(1..=cfg.nodes).contains(&cfg.clusters) {
            return Err(format!(
                "--clusters must be 1-{} for {} nodes, got {}",
                cfg.nodes, cfg.nodes, cfg.clusters
            ));
        }
    } else if cfg.clusters != 1 {
        return Err(format!(
            "--clusters {} requires --protocol hierarchical",
            cfg.clusters
        ));
    }
    let bits = cfg.encoding_bits();
    if bits > 128 {
        return Err(format!(
            "{} nodes x {} lines under {} need a {bits}-bit state key (max 128); \
             use fewer --nodes or --lines",
            cfg.nodes,
            cfg.lines,
            cfg.protocol.name()
        ));
    }
    match cfg.mutation {
        Mutation::StaleRegionDirCache if cfg.protocol != Protocol::DirectoryCgct => {
            return Err("stale-region-dir-cache requires --protocol dir-cgct".into());
        }
        Mutation::SkipClusterInvalidation
            if cfg.protocol != Protocol::Hierarchical || cfg.clusters < 2 =>
        {
            return Err(
                "skip-cluster-invalidation requires --protocol hierarchical --clusters >= 2".into(),
            );
        }
        _ => {}
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse(std::env::args()) {
        Ok(cfg) => cfg,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let clusters = if cfg.protocol == Protocol::Hierarchical {
        format!(" x {} cluster(s)", cfg.clusters)
    } else {
        String::new()
    };
    println!(
        "cgct-verify: {} {} nodes{clusters} x 1 region x {} line(s), \
         self-invalidation {}, mutation {}",
        cfg.protocol.name(),
        cfg.nodes,
        cfg.lines,
        if cfg.self_invalidation { "on" } else { "off" },
        cfg.mutation.name(),
    );
    let t0 = Instant::now();
    let result = explore(&cfg);
    let seconds = t0.elapsed().as_secs_f64();
    println!(
        "explored {} states, {} transitions in {seconds:.3} s \
         ({:.0} states/s, {:.0} transitions/s)",
        result.states,
        result.transitions,
        result.states as f64 / seconds,
        result.transitions as f64 / seconds,
    );
    match result.violation {
        None => {
            println!("all invariants hold at every reachable state");
            ExitCode::SUCCESS
        }
        Some(v) => {
            eprint!("{}", v.render(&GlobalState::initial(&cfg)));
            ExitCode::FAILURE
        }
    }
}
