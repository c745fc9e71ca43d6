//! Drivers for every experiment in the paper's evaluation (§5).
//!
//! Every sweep here is a list of labelled cells ([`WorkItem`]s) and a
//! fold over their results: [`Suite::cells`] lists a suite's cells and
//! [`Suite::from_results`] folds them, and the `fig*` functions and
//! [`rca_stats`] derive each figure's data from a folded suite. The
//! cells in between run through the one cell path,
//! [`crate::runner::run_cells`]; the `cgct-bench` crate's `experiments`
//! binary runs them there, times every cell, reuses repeated ones and
//! writes `EXPERIMENTS.md`. Rendering to tables lives in
//! [`crate::report`].

use crate::config::{CoherenceMode, SystemConfig};
use crate::machine::RunResult;
use crate::runner::{AggregateResult, RunPlan, WorkItem};
use cgct_sim::ConfidenceInterval;
use cgct_workloads::{all_benchmarks, commercial_names};
use std::collections::BTreeMap;

/// The aggregated results of a set of `(benchmark, mode)`
/// configurations.
#[derive(Debug)]
pub struct Suite {
    /// Keyed by `(benchmark, mode label)`.
    pub results: BTreeMap<(String, String), AggregateResult>,
    /// The plan every configuration ran with.
    pub plan: RunPlan,
}

/// The paper's standard mode set: baseline plus CGCT at the three region
/// sizes (Figures 7 and 8).
pub fn standard_modes() -> Vec<CoherenceMode> {
    vec![
        CoherenceMode::Baseline,
        CoherenceMode::Cgct {
            region_bytes: 256,
            sets: 8192,
        },
        CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        },
        CoherenceMode::Cgct {
            region_bytes: 1024,
            sets: 8192,
        },
    ]
}

/// Figure 9's extra mode: the half-size (4K-set) RCA at 512 B.
pub fn half_size_mode() -> CoherenceMode {
    CoherenceMode::Cgct {
        region_bytes: 512,
        sets: 4096,
    }
}

impl Suite {
    /// The suite's cells: every benchmark under every mode (its paper
    /// configuration passed through `adjust`) at every seed of `plan`,
    /// benchmark-major, then mode, then seed, each labelled
    /// `benchmark/mode#seed` ([`WorkItem::label`]). Each seed comes
    /// from [`RunPlan::seed_for`], never from worker identity.
    pub fn cells(
        plan: &RunPlan,
        modes: &[CoherenceMode],
        adjust: impl Fn(SystemConfig) -> SystemConfig,
    ) -> Vec<(String, WorkItem)> {
        let mut cells = Vec::new();
        for spec in all_benchmarks() {
            for mode in modes {
                let cfg = adjust(SystemConfig::paper_default(*mode));
                for run in 0..plan.runs {
                    let item = WorkItem {
                        spec: spec.clone(),
                        cfg: cfg.clone(),
                        seed: plan.seed_for(run),
                    };
                    cells.push((item.label(), item));
                }
            }
        }
        cells
    }

    /// Folds the results of [`Suite::cells`], in item order, into
    /// per-configuration aggregates keyed by `modes`' labels. The runs
    /// of a configuration are a contiguous chunk in ascending seed
    /// order, so the aggregates are bit-identical whatever ran them.
    ///
    /// # Panics
    ///
    /// Panics if `results` is not one result per cell of the suite.
    pub fn from_results(plan: RunPlan, modes: &[CoherenceMode], results: Vec<RunResult>) -> Suite {
        let benchmarks = all_benchmarks();
        assert_eq!(
            results.len(),
            benchmarks.len() * modes.len() * plan.runs as usize,
            "one result per suite cell"
        );
        let mut chunks = results.into_iter();
        let mut grouped = BTreeMap::new();
        for spec in benchmarks {
            for mode in modes {
                let group: Vec<_> = (&mut chunks).take(plan.runs as usize).collect();
                grouped.insert(
                    (spec.name.to_string(), mode.label()),
                    AggregateResult::from_runs(group),
                );
            }
        }
        Suite {
            results: grouped,
            plan,
        }
    }

    /// The aggregated result for `(benchmark, mode_label)`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration was not part of the suite.
    pub fn get(&self, benchmark: &str, mode_label: &str) -> &AggregateResult {
        self.results
            .get(&(benchmark.to_string(), mode_label.to_string()))
            .unwrap_or_else(|| panic!("suite missing {benchmark}/{mode_label}"))
    }

    /// Benchmark names present, in Table 4 order.
    pub fn benchmarks(&self) -> Vec<String> {
        all_benchmarks()
            .iter()
            .filter(|b| self.results.keys().any(|(name, _)| name == b.name))
            .map(|b| b.name.to_string())
            .collect()
    }
}

// -------------------------------------------------------------------
// Figure 2
// -------------------------------------------------------------------

/// One Figure 2 bar: the fraction of requests whose broadcast was
/// unnecessary, split by category.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Ordinary data reads/writes (incl. prefetches) of unshared data.
    pub data: f64,
    /// Write-backs.
    pub writeback: f64,
    /// Instruction fetches of clean-shared data.
    pub ifetch: f64,
    /// DCB operations.
    pub dcb: f64,
}

impl Fig2Row {
    /// Total unnecessary fraction (the bar height).
    pub fn total(&self) -> f64 {
        self.data + self.writeback + self.ifetch + self.dcb
    }
}

/// Builds Figure 2 from the suite's baseline runs.
pub fn fig2(suite: &Suite) -> Vec<Fig2Row> {
    suite
        .benchmarks()
        .iter()
        .map(|b| {
            let agg = suite.get(b, "baseline");
            // Average category fractions across the runs.
            let n = agg.runs.len() as f64;
            let mut row = Fig2Row {
                benchmark: b.clone(),
                data: 0.0,
                writeback: 0.0,
                ifetch: 0.0,
                dcb: 0.0,
            };
            for r in &agg.runs {
                let total = r.metrics.requests.total() as f64;
                if total == 0.0 {
                    continue;
                }
                row.data += r.metrics.unnecessary.data as f64 / total / n;
                row.writeback += r.metrics.unnecessary.writeback as f64 / total / n;
                row.ifetch += r.metrics.unnecessary.ifetch as f64 / total / n;
                row.dcb += r.metrics.unnecessary.dcb as f64 / total / n;
            }
            row
        })
        .collect()
}

// -------------------------------------------------------------------
// Figure 7
// -------------------------------------------------------------------

/// One Figure 7 group: the oracle opportunity vs. what CGCT captured at
/// each region size.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Oracle: fraction of requests whose broadcast was unnecessary.
    pub oracle: f64,
    /// Fraction of requests avoided per region size label.
    pub avoided: BTreeMap<u64, f64>,
}

/// Builds Figure 7: unnecessary-broadcast opportunity vs. requests
/// actually avoided (direct + local) per region size.
pub fn fig7(suite: &Suite, region_sizes: &[u64]) -> Vec<Fig7Row> {
    suite
        .benchmarks()
        .iter()
        .map(|b| {
            let oracle = suite.get(b, "baseline").unnecessary_fraction.mean();
            let avoided = region_sizes
                .iter()
                .map(|&rs| {
                    let label = CoherenceMode::Cgct {
                        region_bytes: rs,
                        sets: 8192,
                    }
                    .label();
                    (rs, suite.get(b, &label).avoided_fraction.mean())
                })
                .collect();
            Fig7Row {
                benchmark: b.clone(),
                oracle,
                avoided,
            }
        })
        .collect()
}

// -------------------------------------------------------------------
// Figures 8 and 9
// -------------------------------------------------------------------

/// Runtime reduction of one CGCT configuration vs. baseline.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Per-mode-label runtime reduction in percent, with its 95% CI
    /// computed over seed-paired runs.
    pub reduction_pct: BTreeMap<String, (f64, ConfidenceInterval)>,
}

/// Builds runtime-reduction rows (Figure 8 with the three region sizes,
/// Figure 9 with full vs half-size arrays) for the given mode labels.
pub fn speedups(suite: &Suite, mode_labels: &[String]) -> Vec<SpeedupRow> {
    suite
        .benchmarks()
        .iter()
        .map(|b| {
            let base = suite.get(b, "baseline");
            let mut reduction_pct = BTreeMap::new();
            for label in mode_labels {
                let cgct = suite.get(b, label);
                // Pair runs by seed for a tighter interval.
                let mut stats = cgct_sim::RunningStats::new();
                for (br, cr) in base.runs.iter().zip(&cgct.runs) {
                    let red = 100.0 * (1.0 - cr.runtime_cycles as f64 / br.runtime_cycles as f64);
                    stats.push(red);
                }
                reduction_pct.insert(
                    label.clone(),
                    (stats.mean(), stats.confidence_interval_95()),
                );
            }
            SpeedupRow {
                benchmark: b.clone(),
                reduction_pct,
            }
        })
        .collect()
}

/// Mean reduction across a set of benchmarks for one mode label.
pub fn mean_reduction(rows: &[SpeedupRow], benchmarks: &[&str], label: &str) -> f64 {
    let vals: Vec<f64> = rows
        .iter()
        .filter(|r| benchmarks.contains(&r.benchmark.as_str()))
        .filter_map(|r| r.reduction_pct.get(label).map(|(m, _)| *m))
        .collect();
    if vals.is_empty() {
        0.0
    } else {
        vals.iter().sum::<f64>() / vals.len() as f64
    }
}

/// Mean reduction over all benchmarks / over the commercial subset, as
/// the paper quotes (8.8% and 10.4% for 512 B regions).
pub fn summary_reductions(rows: &[SpeedupRow], label: &str) -> (f64, f64) {
    let all: Vec<&str> = rows.iter().map(|r| r.benchmark.as_str()).collect();
    let commercial: Vec<&str> = commercial_names().to_vec();
    (
        mean_reduction(rows, &all, label),
        mean_reduction(rows, &commercial, label),
    )
}

// -------------------------------------------------------------------
// Figure 10
// -------------------------------------------------------------------

/// Broadcast traffic per window, baseline vs. CGCT (Figure 10).
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline average broadcasts per window.
    pub base_avg: f64,
    /// Baseline peak broadcasts in any window.
    pub base_peak: f64,
    /// CGCT average.
    pub cgct_avg: f64,
    /// CGCT peak.
    pub cgct_peak: f64,
}

/// Builds Figure 10 for the 512 B-region configuration.
pub fn fig10(suite: &Suite) -> Vec<Fig10Row> {
    let label = CoherenceMode::Cgct {
        region_bytes: 512,
        sets: 8192,
    }
    .label();
    suite
        .benchmarks()
        .iter()
        .map(|b| {
            let base = suite.get(b, "baseline");
            let cgct = suite.get(b, &label);
            Fig10Row {
                benchmark: b.clone(),
                base_avg: base.avg_traffic.mean(),
                base_peak: base.peak_traffic.max(),
                cgct_avg: cgct.avg_traffic.mean(),
                cgct_peak: cgct.peak_traffic.max(),
            }
        })
        .collect()
}

// -------------------------------------------------------------------
// §3.2 / §5.2 RCA statistics
// -------------------------------------------------------------------

/// RCA behaviour statistics (§3.2's eviction distribution, §5.2's lines
/// per region, and the miss-ratio impact of inclusion).
#[derive(Debug, Clone)]
pub struct RcaStatsRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Fraction of evicted regions that were empty.
    pub evicted_empty: f64,
    /// Fraction with one cached line.
    pub evicted_one: f64,
    /// Fraction with two cached lines.
    pub evicted_two: f64,
    /// Mean lines per valid region.
    pub mean_lines_per_region: f64,
    /// Relative L2 miss-ratio increase vs. baseline (the paper: ~1.2%).
    pub miss_ratio_increase: f64,
    /// Region self-invalidations per million requests.
    pub self_invalidations_per_mreq: f64,
}

/// The RCA statistics sweep's plan: at most two seeds of `plan`.
fn rca_stats_plan(plan: &RunPlan) -> RunPlan {
    RunPlan {
        runs: plan.runs.min(2),
        ..*plan
    }
}

/// The RCA statistics sweep's modes: baseline and CGCT-512B (its RCA
/// shrunk to 2K sets by [`SystemConfig::quarter_scale`]).
const RCA_STATS_MODES: [CoherenceMode; 2] = [
    CoherenceMode::Baseline,
    CoherenceMode::Cgct {
        region_bytes: 512,
        sets: 8192,
    },
];

/// The cells behind [`rca_stats`]. §3.2's eviction distribution needs
/// real eviction pressure, so they run quarter-scale configurations —
/// 256 KB L2, 2K-set RCA — preserving the paper's 8:1
/// RCA-reach-to-cache ratio (see `SystemConfig::quarter_scale`): every
/// benchmark under baseline and CGCT-512B for up to two seeds of
/// `plan`, in [`Suite::cells`] order.
pub fn rca_stats_cells(plan: &RunPlan) -> Vec<(String, WorkItem)> {
    Suite::cells(&rca_stats_plan(plan), &RCA_STATS_MODES, |cfg| {
        SystemConfig::quarter_scale(cfg.mode)
    })
}

/// Builds the RCA statistics table (§3.2's eviction distribution,
/// §5.2's lines per region, the inclusion miss-ratio cost) from the
/// results of [`rca_stats_cells`] under the same `plan`, in item order.
pub fn rca_stats(plan: &RunPlan, results: Vec<RunResult>) -> Vec<RcaStatsRow> {
    let suite = Suite::from_results(rca_stats_plan(plan), &RCA_STATS_MODES, results);
    let cgct_label = RCA_STATS_MODES[1].label();
    suite
        .benchmarks()
        .into_iter()
        .map(|b| {
            let base = suite.get(&b, "baseline");
            let cgct = suite.get(&b, &cgct_label);
            let n = cgct.runs.len() as f64;
            let mut row = RcaStatsRow {
                benchmark: b,
                evicted_empty: 0.0,
                evicted_one: 0.0,
                evicted_two: 0.0,
                mean_lines_per_region: 0.0,
                miss_ratio_increase: 0.0,
                self_invalidations_per_mreq: 0.0,
            };
            for r in &cgct.runs {
                row.evicted_empty += r.rca.evicted_empty_fraction / n;
                row.evicted_one += r.rca.evicted_one_line_fraction / n;
                row.evicted_two += r.rca.evicted_two_lines_fraction / n;
                row.mean_lines_per_region += r.rca.mean_lines_per_region / n;
                let reqs = r.metrics.requests.total().max(1) as f64;
                row.self_invalidations_per_mreq += r.rca.self_invalidations as f64 / reqs * 1e6 / n;
            }
            let base_ratio = base.l2_miss_ratio.mean();
            let cgct_ratio = cgct.l2_miss_ratio.mean();
            row.miss_ratio_increase = if base_ratio > 0.0 {
                (cgct_ratio - base_ratio) / base_ratio
            } else {
                0.0
            };
            row
        })
        .collect()
}

// -------------------------------------------------------------------
// JSON serialization (for the experiments binary's --json-dir output)
// -------------------------------------------------------------------

use cgct_sim::{Json, ToJson};

impl ToJson for Fig2Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::str(&self.benchmark)),
            ("data", Json::f64(self.data)),
            ("writeback", Json::f64(self.writeback)),
            ("ifetch", Json::f64(self.ifetch)),
            ("dcb", Json::f64(self.dcb)),
        ])
    }
}

impl ToJson for Fig7Row {
    fn to_json(&self) -> Json {
        let avoided = Json::Object(
            self.avoided
                .iter()
                .map(|(size, frac)| (size.to_string(), Json::f64(*frac)))
                .collect(),
        );
        Json::obj([
            ("benchmark", Json::str(&self.benchmark)),
            ("oracle", Json::f64(self.oracle)),
            ("avoided", avoided),
        ])
    }
}

impl ToJson for SpeedupRow {
    fn to_json(&self) -> Json {
        let reductions = Json::Object(
            self.reduction_pct
                .iter()
                .map(|(label, (mean, ci))| {
                    (
                        label.clone(),
                        Json::obj([("mean", Json::f64(*mean)), ("ci", ci.to_json())]),
                    )
                })
                .collect(),
        );
        Json::obj([
            ("benchmark", Json::str(&self.benchmark)),
            ("reduction_pct", reductions),
        ])
    }
}

impl ToJson for Fig10Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::str(&self.benchmark)),
            ("base_avg", Json::f64(self.base_avg)),
            ("base_peak", Json::f64(self.base_peak)),
            ("cgct_avg", Json::f64(self.cgct_avg)),
            ("cgct_peak", Json::f64(self.cgct_peak)),
        ])
    }
}

impl ToJson for RcaStatsRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("benchmark", Json::str(&self.benchmark)),
            ("evicted_empty", Json::f64(self.evicted_empty)),
            ("evicted_one", Json::f64(self.evicted_one)),
            ("evicted_two", Json::f64(self.evicted_two)),
            (
                "mean_lines_per_region",
                Json::f64(self.mean_lines_per_region),
            ),
            ("miss_ratio_increase", Json::f64(self.miss_ratio_increase)),
            (
                "self_invalidations_per_mreq",
                Json::f64(self.self_invalidations_per_mreq),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cells;

    fn tiny_suite() -> Suite {
        let plan = RunPlan {
            warmup_per_core: 500,
            instructions_per_core: 1_500,
            max_cycles: 2_000_000,
            runs: 2,
            base_seed: 5,
        };
        // Restrict to two modes to keep the test fast; benchmarks are all
        // nine but with very short runs.
        let modes = [
            CoherenceMode::Baseline,
            CoherenceMode::Cgct {
                region_bytes: 512,
                sets: 8192,
            },
        ];
        let runs = run_cells(Suite::cells(&plan, &modes, |c| c), &plan, 2, None, |_| {});
        Suite::from_results(plan, &modes, runs.into_iter().map(|r| r.result).collect())
    }

    #[test]
    fn suite_covers_all_benchmarks_and_modes() {
        let suite = tiny_suite();
        assert_eq!(suite.results.len(), 9 * 2);
        assert_eq!(suite.benchmarks().len(), 9);
        let agg = suite.get("ocean", "baseline");
        assert_eq!(agg.runs.len(), 2);
    }

    #[test]
    fn figures_build_from_suite() {
        let suite = tiny_suite();
        let f2 = fig2(&suite);
        assert_eq!(f2.len(), 9);
        for row in &f2 {
            assert!(row.total() >= 0.0 && row.total() <= 1.0, "{row:?}");
        }
        let f7 = fig7(&suite, &[512]);
        assert_eq!(f7.len(), 9);
        for row in &f7 {
            assert!(row.avoided[&512] >= 0.0 && row.avoided[&512] <= 1.0);
        }
        let labels = vec!["cgct-512B".to_string()];
        let sp = speedups(&suite, &labels);
        assert_eq!(sp.len(), 9);
        let (_all, _comm) = summary_reductions(&sp, "cgct-512B");
        let f10 = fig10(&suite);
        assert!(f10.iter().all(|r| r.base_avg >= r.cgct_avg * 0.2));
        let cells = rca_stats_cells(&suite.plan);
        assert_eq!(cells.len(), 9 * 2 * 2);
        assert_eq!(cells[2].0, "ocean/cgct-512B-2048sets#s5");
        let runs = run_cells(cells, &suite.plan, 2, None, |_| {});
        let rs = rca_stats(&suite.plan, runs.into_iter().map(|r| r.result).collect());
        assert_eq!(rs.len(), 9);
    }

    #[test]
    #[should_panic(expected = "one result per suite cell")]
    fn suite_fold_rejects_a_short_result_list() {
        let _ = Suite::from_results(RunPlan::smoke(), &[CoherenceMode::Baseline], Vec::new());
    }

    #[test]
    #[should_panic(expected = "suite missing")]
    fn missing_configuration_panics() {
        let suite = tiny_suite();
        let _ = suite.get("ocean", "cgct-1024B");
    }

    #[test]
    fn mean_reduction_filters_benchmarks() {
        use cgct_sim::ConfidenceInterval;
        let ci = ConfidenceInterval {
            low: 0.0,
            high: 0.0,
        };
        let row = |name: &str, v: f64| SpeedupRow {
            benchmark: name.into(),
            reduction_pct: [("m".to_string(), (v, ci))].into_iter().collect(),
        };
        let rows = vec![row("a", 10.0), row("b", 20.0), row("c", 60.0)];
        assert_eq!(mean_reduction(&rows, &["a", "b"], "m"), 15.0);
        assert_eq!(mean_reduction(&rows, &["c"], "m"), 60.0);
        assert_eq!(mean_reduction(&rows, &["zzz"], "m"), 0.0);
        assert_eq!(mean_reduction(&rows, &["a"], "missing-label"), 0.0);
    }

    #[test]
    fn summary_reductions_split_commercial() {
        use cgct_sim::ConfidenceInterval;
        let ci = ConfidenceInterval {
            low: 0.0,
            high: 0.0,
        };
        let row = |name: &str, v: f64| SpeedupRow {
            benchmark: name.into(),
            reduction_pct: [("m".to_string(), (v, ci))].into_iter().collect(),
        };
        // barnes is scientific; tpc-w is commercial.
        let rows = vec![row("barnes", 2.0), row("tpc-w", 20.0)];
        let (all, commercial) = summary_reductions(&rows, "m");
        assert_eq!(all, 11.0);
        assert_eq!(commercial, 20.0);
    }

    #[test]
    fn fig2_row_total_sums_categories() {
        let r = Fig2Row {
            benchmark: "x".into(),
            data: 0.4,
            writeback: 0.1,
            ifetch: 0.05,
            dcb: 0.01,
        };
        assert!((r.total() - 0.56).abs() < 1e-12);
    }

    #[test]
    fn report_rows_roundtrip_through_json() {
        // The experiments binary dumps rows with ToJson; parsing the dump
        // back must recover every field.
        let fig7 = Fig7Row {
            benchmark: "ocean".into(),
            oracle: 0.42,
            avoided: [(256u64, 0.30), (512, 0.35)].into_iter().collect(),
        };
        let v = cgct_sim::Json::parse(&fig7.to_json().dump()).unwrap();
        assert_eq!(v.get("benchmark").and_then(|b| b.as_str()), Some("ocean"));
        assert_eq!(v.get("oracle").and_then(|o| o.as_f64()), Some(0.42));
        let avoided = v.get("avoided").unwrap();
        assert_eq!(avoided.get("256").and_then(|x| x.as_f64()), Some(0.30));
        assert_eq!(avoided.get("512").and_then(|x| x.as_f64()), Some(0.35));

        let speedup = SpeedupRow {
            benchmark: "tpc-w".into(),
            reduction_pct: [(
                "m".to_string(),
                (
                    8.8,
                    ConfidenceInterval {
                        low: 7.0,
                        high: 10.6,
                    },
                ),
            )]
            .into_iter()
            .collect(),
        };
        let v = cgct_sim::Json::parse(&speedup.to_json().dump()).unwrap();
        let m = v.get("reduction_pct").and_then(|r| r.get("m")).unwrap();
        assert_eq!(m.get("mean").and_then(|x| x.as_f64()), Some(8.8));
        assert_eq!(
            m.get("ci")
                .and_then(|ci| ci.get("low"))
                .and_then(|x| x.as_f64()),
            Some(7.0)
        );
        assert_eq!(
            m.get("ci")
                .and_then(|ci| ci.get("high"))
                .and_then(|x| x.as_f64()),
            Some(10.6)
        );

        let fig10 = Fig10Row {
            benchmark: "barnes".into(),
            base_avg: 10.0,
            base_peak: 50.0,
            cgct_avg: 6.0,
            cgct_peak: 40.0,
        };
        let v = cgct_sim::Json::parse(&fig10.to_json().dump()).unwrap();
        assert_eq!(v.get("base_peak").and_then(|x| x.as_f64()), Some(50.0));
        assert_eq!(v.get("cgct_avg").and_then(|x| x.as_f64()), Some(6.0));
    }

    #[test]
    fn standard_modes_cover_paper_sweep() {
        let modes = standard_modes();
        assert_eq!(modes.len(), 4);
        assert_eq!(modes[0], CoherenceMode::Baseline);
        let sizes: Vec<u64> = modes[1..].iter().map(|m| m.region_bytes()).collect();
        assert_eq!(sizes, [256, 512, 1024]);
        assert_eq!(half_size_mode().label(), "cgct-512B-4096sets");
    }
}
