//! Turns passes into the benchmark's named metrics and its result line.

use crate::harness::{Counts, Pass};
use crate::stats::{median, Summary};
use crate::traced::Ledger;
use cgct_sim::json::{Json, Num};

/// The end-to-end metrics, as `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("kunits_per_s", "k/s"),
    ("cell_max_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, as `(name, unit)`, in output order.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("workloads.uops", "count"),
    ("workloads.muops_per_s", "M/s"),
    ("workloads.share", "%"),
    ("cpu.ticks", "count"),
    ("cpu.ticks_per_kinstr", "ticks/kinstr"),
    ("cpu.skip_ratio", "ratio"),
    ("cpu.mticks_per_s", "M/s"),
    ("cpu.share", "%"),
    ("memsys.l1.calls", "count"),
    ("memsys.l1.mcalls_per_s", "M/s"),
    ("memsys.l1.share", "%"),
    ("memsys.l2.calls", "count"),
    ("memsys.l2.mcalls_per_s", "M/s"),
    ("memsys.l2.share", "%"),
    ("memsys.ext.calls", "count"),
    ("memsys.ext.mcalls_per_s", "M/s"),
    ("memsys.ext.share", "%"),
    ("memsys.broadcasts", "count"),
    ("memsys.direct", "count"),
    ("memsys.local", "count"),
    ("memsys.snooped_tag_lookups", "count"),
    ("memsys.cache_to_cache", "count"),
    ("memsys.memory_fills", "count"),
    ("memsys.broadcast_ratio", "ratio"),
    ("rca.hits", "count"),
    ("rca.misses", "count"),
    ("rca.hit_ratio", "ratio"),
    ("rca.evictions", "count"),
    ("rca.self_invalidations", "count"),
    ("dir.lookups", "count"),
    ("dir.bypasses", "count"),
    ("dir.bypass_ratio", "ratio"),
    ("dir.three_hop", "count"),
    ("hier.cluster_local", "count"),
    ("hier.cross_cluster", "count"),
    ("hier.snoops_filtered", "count"),
    ("events.delivered", "count"),
    ("events.advance_calls", "count"),
    ("events.mevents_per_s", "M/s"),
    ("events.share", "%"),
    ("pool.workers", "count"),
    ("pool.busy_s", "s"),
    ("pool.idle_share", "%"),
    ("verify.states", "count"),
    ("verify.transitions", "count"),
    ("verify.ktransitions_per_s", "k/s"),
    ("verify.share", "%"),
    ("harness.share", "%"),
    ("trace.overhead_ratio", "ratio"),
];

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit, from the same table.
    pub unit: &'static str,
    /// The reported value (a median where there are several samples).
    pub value: f64,
    /// The samples' summary, where the value is a median of samples.
    pub summary: Option<Summary>,
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Builds the metrics of `table` from named values; panics if the two
/// disagree, which is a bug in this file.
fn named(
    table: &[(&'static str, &'static str)],
    mut values: Vec<(&'static str, f64, Option<Summary>)>,
) -> Vec<Metric> {
    assert_eq!(values.len(), table.len(), "metric table and values differ");
    table
        .iter()
        .map(|&(name, unit)| {
            let at = values
                .iter()
                .position(|v| v.0 == name)
                .unwrap_or_else(|| panic!("no value for metric {name}"));
            let (_, value, summary) = values.swap_remove(at);
            assert!(value.is_finite(), "metric {name} is {value}");
            Metric {
                name,
                unit,
                value,
                summary,
            }
        })
        .collect()
}

/// The end-to-end metrics of untraced `passes`, the set-up samples and
/// the process's peak resident memory.
///
/// # Panics
///
/// Panics when `passes` or `setup` is empty.
pub fn end_to_end(passes: &[Pass], setup: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    let of = |f: &dyn Fn(&Pass) -> f64| {
        let xs: Vec<f64> = passes.iter().map(f).collect();
        let s = Summary::of(&xs).expect("at least one pass");
        (s.median(), Some(s))
    };
    let (wall, wall_s) = of(&|p| p.wall_s);
    let (rate, rate_s) = of(&|p| p.units() as f64 / p.wall_s / 1e3);
    let (max, max_s) = of(&|p| p.cell_max_s());
    let setup_s = Summary::of(setup).expect("at least one set-up sample");
    named(
        &END_TO_END,
        vec![
            ("wall_s", wall, wall_s),
            ("kunits_per_s", rate, rate_s),
            ("cell_max_s", max, max_s),
            ("setup_s", setup_s.median(), Some(setup_s)),
            ("peak_rss_mib", peak_rss_mib, None),
        ],
    )
}

/// Sums the ledgers of `pass`'s cells.
fn ledger_of(pass: &Pass) -> Ledger {
    let mut sum = Ledger::default();
    for l in pass.cells.iter().filter_map(|c| c.ledger.as_ref()) {
        sum.add(l);
    }
    sum
}

/// The per-layer metrics of paired untraced and traced passes. Counts
/// come from the first pair (every pass does identical work); layer
/// times are summed over every traced pass.
///
/// # Panics
///
/// Panics when `pairs` is empty.
pub fn per_layer(pairs: &[(Pass, Pass)]) -> Vec<Metric> {
    let (untraced, traced) = &pairs[0];
    let counts: Counts = untraced.counts();
    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let first = ledger_of(traced);
    let mut all = Ledger::default();
    for (_, t) in pairs {
        all.add(&ledger_of(t));
    }
    let share = |s: f64| 100.0 * ratio(s, all.cell_s);
    let per_s = |n: u64, s: f64, scale: f64| ratio(n as f64, s) / scale;
    let med = |f: &dyn Fn(&(Pass, Pass)) -> f64| {
        let xs: Vec<f64> = pairs.iter().map(f).collect();
        median(&xs).expect("at least one pair")
    };
    let [l1, l2, ext] = all.mem;
    let [f1, f2, fx] = first.mem;
    let (hits, misses) = (count("rca.hits"), count("rca.misses"));
    let (lookups, bypasses) = (count("dir.lookups"), count("dir.bypasses"));
    let v = |name, value| (name, value, None);
    named(
        &PER_LAYER,
        vec![
            v("workloads.uops", first.uops as f64),
            v(
                "workloads.muops_per_s",
                per_s(all.uops_pulled, all.workloads_s, 1e6),
            ),
            v("workloads.share", share(all.workloads_s)),
            v("cpu.ticks", count("cpu.ticks")),
            v(
                "cpu.ticks_per_kinstr",
                ratio(count("cpu.ticks"), first.committed as f64 / 1e3),
            ),
            v(
                "cpu.skip_ratio",
                ratio(count("cpu.ticks"), first.core_cycles as f64),
            ),
            v("cpu.mticks_per_s", per_s(all.ticks, all.cpu_self_s(), 1e6)),
            v("cpu.share", share(all.cpu_self_s())),
            v("memsys.l1.calls", f1.0 as f64),
            v("memsys.l1.mcalls_per_s", per_s(l1.0, l1.1, 1e6)),
            v("memsys.l1.share", share(l1.1)),
            v("memsys.l2.calls", f2.0 as f64),
            v("memsys.l2.mcalls_per_s", per_s(l2.0, l2.1, 1e6)),
            v("memsys.l2.share", share(l2.1)),
            v("memsys.ext.calls", fx.0 as f64),
            v("memsys.ext.mcalls_per_s", per_s(ext.0, ext.1, 1e6)),
            v("memsys.ext.share", share(ext.1)),
            v("memsys.broadcasts", count("memsys.broadcasts")),
            v("memsys.direct", count("memsys.direct")),
            v("memsys.local", count("memsys.local")),
            v(
                "memsys.snooped_tag_lookups",
                count("memsys.snooped_tag_lookups"),
            ),
            v("memsys.cache_to_cache", count("memsys.cache_to_cache")),
            v("memsys.memory_fills", count("memsys.memory_fills")),
            v(
                "memsys.broadcast_ratio",
                ratio(count("memsys.broadcasts"), count("memsys.requests")),
            ),
            v("rca.hits", hits),
            v("rca.misses", misses),
            v("rca.hit_ratio", ratio(hits, hits + misses)),
            v("rca.evictions", count("rca.evictions")),
            v("rca.self_invalidations", count("rca.self_invalidations")),
            v("dir.lookups", lookups),
            v("dir.bypasses", bypasses),
            v("dir.bypass_ratio", ratio(bypasses, lookups + bypasses)),
            v("dir.three_hop", count("dir.three_hop")),
            v("hier.cluster_local", count("hier.cluster_local")),
            v("hier.cross_cluster", count("hier.cross_cluster")),
            v("hier.snoops_filtered", count("hier.snoops_filtered")),
            v("events.delivered", first.events as f64),
            v("events.advance_calls", first.advance_calls as f64),
            v("events.mevents_per_s", per_s(all.events, all.events_s, 1e6)),
            v("events.share", share(all.events_s)),
            v("pool.workers", untraced.workers as f64),
            v("pool.busy_s", med(&|(u, _)| u.busy_s())),
            v(
                "pool.idle_share",
                med(&|(u, _)| 100.0 * (1.0 - u.busy_s() / (u.workers as f64 * u.wall_s))),
            ),
            v("verify.states", count("verify.states")),
            v("verify.transitions", count("verify.transitions")),
            v(
                "verify.ktransitions_per_s",
                per_s(
                    count("verify.transitions") as u64 * pairs.len() as u64,
                    all.verify_s,
                    1e3,
                ),
            ),
            v("verify.share", share(all.verify_s)),
            v("harness.share", share(all.harness_s())),
            v("trace.overhead_ratio", med(&|(u, t)| t.wall_s / u.wall_s)),
        ],
    )
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::Object(vec![
                    ("value".to_string(), Json::Num(Num::F(m.value))),
                    ("unit".to_string(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::u64(attempted as u64)),
        ("failed".to_string(), Json::u64(failed as u64)),
        ("metrics".to_string(), Json::Object(metrics)),
    ])
    .dump()
}
