//! The shared memory system: per-node L1I/L1D/L2 caches, the coherence
//! trackers (RCA / scaled / RegionScout), the broadcast bus, and the
//! memory controllers.
//!
//! The simulation uses an *atomic bus* model: when a request is granted
//! the bus, every other node is snooped and all state transitions are
//! applied at that instant; only the data latency is paid over time. This
//! is the standard fidelity level for snooping-protocol studies and keeps
//! the simulator deterministic — requests are processed in global time
//! order because the cores are stepped cycle by cycle.

use crate::config::{CoherenceMode, SystemConfig};
use crate::directory::{
    ClusterDirectory, DirAction, DirEntry, DirectoryController, RegionDirCache,
};
use crate::invariants::{self, LineCopy, RegionEntry, RegionView};
use crate::metrics::{MemMetrics, RequestCategory};
use crate::oracle::classify;
use crate::request::{self, Arm, Machine, MergedRegionResp, Outcome, Store, Upkeep, Visit};
use cgct::{
    FillKind, JettyFilter, LocalFill, RegionCoherenceArray, RegionPermission, RegionScout,
    RegionSnoopResponse, ScaledRca,
};
use cgct_cache::{
    snoop_line, Addr, Geometry, LineAddr, MoesiState, MsiState, RegionAddr, ReqKind, SetAssocArray,
};
use cgct_cpu::StreamPrefetcher;
use cgct_interconnect::{
    AddressNetwork, CoreId, DistanceClass, McId, MemEvent, MemoryController, Topology,
};
use cgct_sim::Xoshiro256pp;
use cgct_sim::{Cycle, EventQueue};
use cgct_trace::{
    Category as TraceCategory, EventKind, PathTag, ReqTag, SharedSink, TraceEvent, TraceSink,
    UNKEYED,
};

/// Splits the borrow between `self.tracer` and the interconnect field a
/// traced call targets (`bus` / `mcs`), producing the optional
/// `(sink, node, seq)` argument the `*_traced` interconnect variants
/// take.
macro_rules! trace_arg {
    ($ms:expr, $tid:expr) => {
        match (&mut $ms.tracer, $tid) {
            (Some(t), Some((node, seq))) => Some((&mut t.sink as &mut dyn TraceSink, node, seq)),
            _ => None,
        }
    };
}

/// The coherence tracker variant attached to one node.
#[derive(Debug)]
enum Tracker {
    None,
    Rca(RegionCoherenceArray),
    Scaled(ScaledRca),
    Scout(RegionScout),
}

impl Tracker {
    fn permission(&mut self, region: RegionAddr, req: ReqKind) -> RegionPermission {
        match self {
            Tracker::None => RegionPermission::Broadcast,
            Tracker::Rca(rca) => rca.permission(region, req),
            Tracker::Scaled(s) => s.permission(region, req),
            Tracker::Scout(s) => {
                if s.permits_direct(region, req) {
                    match req {
                        ReqKind::Upgrade | ReqKind::Dcbz => RegionPermission::CompleteLocally,
                        _ => RegionPermission::DirectToMemory,
                    }
                } else {
                    RegionPermission::Broadcast
                }
            }
        }
    }

    /// Applies a local completion; returns whether an RCA allocated an
    /// entry for `region`, and a displaced region whose lines must be
    /// flushed (region, line count).
    fn local_complete(
        &mut self,
        region: RegionAddr,
        fill: FillKind,
        resp: Option<MergedRegionResp>,
        mc: u8,
    ) -> (bool, Option<(RegionAddr, u32)>) {
        match self {
            Tracker::None => (false, None),
            Tracker::Rca(rca) => match rca.local_fill(region, fill, resp.map(|r| r.rca), mc) {
                LocalFill::Updated => (false, None),
                LocalFill::Allocated(ev) => (true, ev.map(|ev| (ev.region, ev.entry.line_count))),
            },
            Tracker::Scaled(s) => (false, s.local_fill(region, resp.map(|r| r.cached_bit), mc)),
            Tracker::Scout(s) => {
                if let Some(r) = resp {
                    s.record_global_response(region, r.cached_bit);
                }
                (false, None)
            }
        }
    }

    /// Answers an external request; `my_region_lines` is the true number
    /// of lines of the region this node caches (used by the scout's
    /// false-positive accounting).
    fn external(
        &mut self,
        region: RegionAddr,
        req: ReqKind,
        fill_exclusive: bool,
        my_region_lines: u32,
    ) -> MergedRegionResp {
        match self {
            Tracker::None => MergedRegionResp::default(),
            Tracker::Rca(rca) => {
                let r = rca.external_request(region, req, fill_exclusive);
                MergedRegionResp {
                    rca: r,
                    cached_bit: r.any(),
                }
            }
            Tracker::Scaled(s) => MergedRegionResp {
                rca: RegionSnoopResponse::NONE,
                cached_bit: s.external_request(region, req),
            },
            Tracker::Scout(s) => MergedRegionResp {
                rca: RegionSnoopResponse::NONE,
                cached_bit: s.external_request(region, my_region_lines),
            },
        }
    }

    fn line_cached(&mut self, region: RegionAddr) {
        match self {
            Tracker::None => {}
            Tracker::Rca(rca) => rca.line_cached(region),
            Tracker::Scaled(s) => s.line_cached(region),
            Tracker::Scout(s) => s.line_cached(region),
        }
    }

    fn line_uncached(&mut self, region: RegionAddr) {
        match self {
            Tracker::None => {}
            Tracker::Rca(rca) => rca.line_uncached(region),
            Tracker::Scaled(s) => s.line_uncached(region),
            Tracker::Scout(s) => s.line_uncached(region),
        }
    }

    fn rca(&self) -> Option<&RegionCoherenceArray> {
        match self {
            Tracker::Rca(rca) => Some(rca),
            _ => None,
        }
    }

    /// The tracked region state, where the tracker keeps one (the
    /// extensions of §6 consult it without mutating anything).
    fn region_state(&self, region: RegionAddr) -> Option<cgct::RegionState> {
        match self {
            Tracker::Rca(rca) => Some(rca.state(region)),
            _ => None,
        }
    }

    fn owner_hint(&self, region: RegionAddr) -> Option<u8> {
        match self {
            Tracker::Rca(rca) => rca.owner_hint(region),
            _ => None,
        }
    }

    fn record_supplier(&mut self, region: RegionAddr, supplier: u8) {
        if let Tracker::Rca(rca) = self {
            rca.record_supplier(region, supplier);
        }
    }

    /// Cumulative region self-invalidations this tracker has performed
    /// (used to attribute [`EventKind::RcaSelfInvalidate`] trace events
    /// to the snoop that triggered them).
    fn self_invalidations(&self) -> u64 {
        match self {
            Tracker::Rca(rca) => rca.stats().self_invalidations.value(),
            Tracker::Scaled(s) => s.self_invalidations(),
            Tracker::None | Tracker::Scout(_) => 0,
        }
    }

    /// Serializes the tracker's dynamic state, tagged by variant so a
    /// restore into the wrong coherence mode fails loudly.
    fn snap_state(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        match self {
            Tracker::None => Json::Null,
            Tracker::Rca(r) => Json::obj([("k", Json::str("rca")), ("s", r.snap_state())]),
            Tracker::Scaled(s) => Json::obj([("k", Json::str("scaled")), ("s", s.snap_state())]),
            Tracker::Scout(s) => Json::obj([("k", Json::str("scout")), ("s", s.snap_state())]),
        }
    }

    /// Restores state captured by [`Tracker::snap_state`]; the snapshot
    /// variant must match this tracker's.
    fn restore_state(&mut self, v: &cgct_sim::Json) -> Result<(), String> {
        use cgct_sim::snap::field;
        use cgct_sim::Json;
        let kind = match v {
            Json::Null => None,
            _ => Some(
                field(v, "k")?
                    .as_str()
                    .ok_or("tracker kind must be a string")?,
            ),
        };
        match (self, kind) {
            (Tracker::None, None) => Ok(()),
            (Tracker::Rca(r), Some("rca")) => r.restore_state(field(v, "s")?),
            (Tracker::Scaled(s), Some("scaled")) => s.restore_state(field(v, "s")?),
            (Tracker::Scout(s), Some("scout")) => s.restore_state(field(v, "s")?),
            (_, k) => Err(format!("tracker variant mismatch (snapshot has {k:?})")),
        }
    }
}

/// Per-machine request-lifetime tracing state
/// ([`MemorySystem::set_trace`]): the shared event sink plus a per-node
/// request-id allocator. Request ids are `(node, seq)` with `seq` dense
/// per node, so traces are deterministic regardless of how runs are
/// scheduled across worker threads.
#[derive(Debug)]
struct TracerState {
    sink: SharedSink,
    next_seq: Vec<u64>,
}

fn trace_req_tag(req: ReqKind) -> ReqTag {
    match req {
        ReqKind::Read => ReqTag::Read,
        ReqKind::ReadShared => ReqTag::ReadShared,
        ReqKind::ReadExclusive => ReqTag::ReadExclusive,
        ReqKind::Upgrade => ReqTag::Upgrade,
        ReqKind::Writeback => ReqTag::Writeback,
        ReqKind::Dcbz => ReqTag::Dcbz,
    }
}

fn trace_category(cat: RequestCategory) -> TraceCategory {
    match cat {
        RequestCategory::DataReadWrite => TraceCategory::Data,
        RequestCategory::Writeback => TraceCategory::Writeback,
        RequestCategory::Ifetch => TraceCategory::Ifetch,
        RequestCategory::DcbOp => TraceCategory::Dcb,
    }
}

/// Reverse index from region to the lines of it a node's L2 caches.
///
/// Region-grain operations — RCA eviction flushes, RegionScout snoop
/// accounting, self-invalidation checks — previously walked every line
/// address in the region (`Geometry::lines_in_region`) probing the L2
/// for each. The paper's own data (§3.2: 65.1% of evicted regions hold
/// zero cached lines) says most of those walks find nothing. This index
/// makes the count an O(1) lookup and enumerates exactly the cached
/// lines. It must be updated at every L2 insertion/removal; the
/// invariant checker re-derives it from the L2 the slow way and
/// compares. Only nodes with a region tracker keep one: nothing reads it
/// on a `Baseline` or `Directory` node.
#[derive(Debug)]
struct RegionLineIndex {
    /// Region key -> (cached-line count, bitmask of line offsets within
    /// the region). The mask is meaningful only when `exact`.
    map: cgct_sim::hash::StableHashMap<u64, (u32, u128)>,
    /// Masks cover regions of up to 128 lines (8 KB at 64 B lines —
    /// larger than any configuration in the sweeps). Beyond that only
    /// counts are kept and flushes fall back to an early-exit walk.
    exact: bool,
}

impl RegionLineIndex {
    fn new(geom: Geometry) -> Self {
        RegionLineIndex {
            map: cgct_sim::hash::StableHashMap::default(),
            exact: geom.lines_per_region() <= 128,
        }
    }

    fn on_insert(&mut self, geom: Geometry, line: LineAddr) {
        let region = geom.region_of_line(line);
        let entry = self.map.entry(region.0).or_insert((0, 0));
        entry.0 += 1;
        if self.exact {
            entry.1 |= 1u128 << geom.line_index_in_region(line);
        }
    }

    fn on_remove(&mut self, geom: Geometry, line: LineAddr) {
        let region = geom.region_of_line(line);
        let entry = self
            .map
            .get_mut(&region.0)
            // cgct-lint: allow(D006) region-line index inclusion: a removed line was indexed by the insert that cached it; fail-stop on violation
            .expect("removed line was indexed");
        entry.0 -= 1;
        if self.exact {
            entry.1 &= !(1u128 << geom.line_index_in_region(line));
        }
        if entry.0 == 0 {
            self.map.remove(&region.0);
        }
    }

    fn count(&self, region: RegionAddr) -> u32 {
        self.map.get(&region.0).map_or(0, |&(c, _)| c)
    }
}

/// Region -> mask of the nodes whose RCA holds an entry for the region.
///
/// The paper's point is that a node that knows who holds a region need
/// not ask everyone. An external request changes nothing at a node whose
/// RCA has no entry for the region, and by RCA inclusion (no entry, no
/// cached line) such a node's L2 holds no line of it either. So this one
/// mask bounds both the region relay ([`MemorySystem::region_external_all`])
/// and the bus's line snoop. Kept only when every tracker is an RCA and
/// the machine has at most 64 nodes; written only when an RCA allocates,
/// evicts or self-invalidates a region. Derived state: never serialized,
/// rebuilt on restore, and checked by [`MemorySystem::check_invariants`].
#[derive(Debug, Default)]
struct RegionHolders {
    /// Region key -> node bitmask; a region no RCA holds has no entry.
    map: cgct_sim::hash::StableHashMap<u64, u64>,
}

impl RegionHolders {
    fn mask(&self, region: RegionAddr) -> u64 {
        self.map.get(&region.0).copied().unwrap_or(0)
    }

    fn add(&mut self, region: RegionAddr, node: usize) {
        *self.map.entry(region.0).or_insert(0) |= 1 << node;
    }

    fn remove(&mut self, region: RegionAddr, node: usize) {
        if let Some(mask) = self.map.get_mut(&region.0) {
            *mask &= !(1 << node);
            if *mask == 0 {
                self.map.remove(&region.0);
            }
        }
    }
}

/// The mask of the first `n` nodes.
fn low_nodes(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// One processor node's private state.
#[derive(Debug)]
struct Node {
    l1i: SetAssocArray<()>,
    l1d: SetAssocArray<MsiState>,
    l2: SetAssocArray<MoesiState>,
    /// Region -> cached-lines reverse index over `l2`; `Some` exactly
    /// when `tracker` is not [`Tracker::None`].
    lines: Option<RegionLineIndex>,
    tracker: Tracker,
    prefetcher: StreamPrefetcher,
    /// Jetty snoop filter (energy study; related work §2).
    jetty: Option<JettyFilter>,
}

impl Node {
    /// The count of the region's lines in this node's L2: O(1) from the
    /// index, or the slow walk on a node without one (no tracker-less
    /// path asks).
    fn count_region_lines(&self, geom: Geometry, region: RegionAddr) -> u32 {
        match &self.lines {
            Some(index) => index.count(region),
            None => self.count_region_lines_slow(geom, region),
        }
    }

    /// Ground truth for the invariant checker: the count derived by
    /// probing the L2 for every line address in the region.
    fn count_region_lines_slow(&self, geom: Geometry, region: RegionAddr) -> u32 {
        geom.lines_in_region(region)
            .filter(|l| self.l2.contains(l.0))
            .count() as u32
    }

    /// Removes `line` from the L2 (keeping the reverse index in sync)
    /// and returns its state, if present.
    fn l2_remove(&mut self, geom: Geometry, line: LineAddr) -> Option<MoesiState> {
        let state = self.l2.remove(line.0)?;
        if let Some(index) = &mut self.lines {
            index.on_remove(geom, line);
        }
        Some(state)
    }

    /// Inserts `line` into the L2 (keeping the reverse index in sync),
    /// returning the displaced victim, if any.
    fn l2_insert(
        &mut self,
        geom: Geometry,
        line: LineAddr,
        state: MoesiState,
    ) -> Option<(u64, MoesiState)> {
        let displaced = self.l2.insert_lru(line.0, state);
        if let Some(index) = &mut self.lines {
            index.on_insert(geom, line);
            if let Some((victim_key, _)) = displaced {
                index.on_remove(geom, LineAddr(victim_key));
            }
        }
        displaced
    }

    /// Serializes this node's caches, tracker, prefetcher, and snoop
    /// filter. The region-line reverse index is *not* serialized — it is
    /// derived state, rebuilt from the restored L2 by
    /// [`Node::restore_state`] on a node that keeps one.
    fn snap_state(&self) -> cgct_sim::Json {
        use cgct_sim::{Json, Snap};
        Json::obj([
            ("l1i", self.l1i.snap()),
            ("l1d", self.l1d.snap()),
            ("l2", self.l2.snap()),
            ("tracker", self.tracker.snap_state()),
            ("prefetcher", self.prefetcher.snap_state()),
            (
                "jetty",
                match &self.jetty {
                    None => Json::Null,
                    Some(j) => Json::Array(vec![j.snap_state()]),
                },
            ),
        ])
    }

    /// Restores state captured by [`Node::snap_state`] into a node built
    /// from the identical configuration, validating every geometry.
    fn restore_state(&mut self, geom: Geometry, v: &cgct_sim::Json) -> Result<(), String> {
        use cgct_sim::snap::{field, unsnap_field};
        use cgct_sim::Json;
        let l1i: SetAssocArray<()> = unsnap_field(v, "l1i")?;
        let l1d: SetAssocArray<MsiState> = unsnap_field(v, "l1d")?;
        let l2: SetAssocArray<MoesiState> = unsnap_field(v, "l2")?;
        for (name, (sets, ways), cur) in [
            (
                "l1i",
                (l1i.sets(), l1i.ways()),
                &self.l1i as &dyn CacheShape,
            ),
            ("l1d", (l1d.sets(), l1d.ways()), &self.l1d),
            ("l2", (l2.sets(), l2.ways()), &self.l2),
        ] {
            if (sets, ways) != cur.shape() {
                return Err(format!(
                    "{name} geometry {sets}x{ways} does not match configuration"
                ));
            }
        }
        let lines = self.lines.as_ref().map(|_| {
            let mut index = RegionLineIndex::new(geom);
            for (key, _) in l2.iter() {
                index.on_insert(geom, LineAddr(key));
            }
            index
        });
        self.l1i = l1i;
        self.l1d = l1d;
        self.l2 = l2;
        self.lines = lines;
        self.tracker.restore_state(field(v, "tracker")?)?;
        self.prefetcher.restore_state(field(v, "prefetcher")?)?;
        match (&mut self.jetty, field(v, "jetty")?) {
            (None, Json::Null) => {}
            (Some(j), Json::Array(a)) if a.len() == 1 => j.restore_state(&a[0])?,
            _ => return Err("jetty filter presence mismatch".to_string()),
        }
        Ok(())
    }
}

/// Uniform `(sets, ways)` view over the three differently-typed cache
/// arrays, for [`Node::restore_state`]'s geometry validation loop.
trait CacheShape {
    fn shape(&self) -> (usize, usize);
}

impl<E> CacheShape for SetAssocArray<E> {
    fn shape(&self) -> (usize, usize) {
        (self.sets(), self.ways())
    }
}

/// The complete shared memory system.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: SystemConfig,
    geom: Geometry,
    topo: Topology,
    nodes: Vec<Node>,
    bus: AddressNetwork,
    mcs: Vec<MemoryController>,
    /// Full-map directories, one per controller (directory-backed modes
    /// only).
    directories: Vec<DirectoryController>,
    /// Region-grain directory caches, one per controller
    /// (`DirectoryCgct` only; empty otherwise). Maintained exactly from
    /// the line entries after every directory update, so a hit is
    /// authoritative.
    region_dir_caches: Vec<RegionDirCache>,
    /// The inter-cluster region directory (`Hierarchical` only).
    /// Conceptually distributed across home controllers; a single
    /// region-indexed map is their union and behaves identically.
    cluster_dir: Option<ClusterDirectory>,
    /// Per-cluster address buses (`Hierarchical` only; empty
    /// otherwise). Flat modes arbitrate `bus` instead.
    cluster_buses: Vec<AddressNetwork>,
    /// Region -> RCA-holder node mask (RCA modes of at most 64 nodes
    /// only): the snoop loops visit only its bits.
    holders: Option<RegionHolders>,
    /// Per-node data-network port: next time it is free (Table 3's
    /// 2.4 GB/s per-processor data bandwidth).
    data_ports: Vec<Cycle>,
    /// The machine's central completion-event queue: bus grants, snoop
    /// resolutions, DRAM bank completions, data-port releases, and MSHR
    /// fills all schedule a typed [`MemEvent`] here at the cycle they
    /// finish. Events carry no state — the atomic-bus engine applies
    /// every transition synchronously — so they never steer the clock:
    /// each time the run loop stops, [`MemorySystem::advance`] retires
    /// every event due by then and counts it (the `mem_events` figure,
    /// reset with the other metrics).
    events: EventQueue<MemEvent>,
    /// Collected metrics (public so runners can read and reset).
    pub metrics: MemMetrics,
    /// Time origin for metrics (reset after cache warmup).
    metrics_epoch: Cycle,
    perturb: Xoshiro256pp,
    sample_countdown: u32,
    /// Runtime coherence sanitizer (`CGCT_SANITIZE=1` or
    /// [`MemorySystem::set_sanitize`]): re-checks the global invariants
    /// every `sanitize_interval` coherence-point requests and validates
    /// every no-broadcast decision against the actual remote states.
    /// Strictly read-only over the architectural and metric state, so a
    /// sanitized run produces byte-identical results.
    sanitize: bool,
    sanitize_interval: u64,
    sanitize_countdown: u64,
    sanitize_checks: u64,
    /// Nesting depth of [`MemorySystem::coherent_request`] — fills can
    /// trigger evictions whose write-backs re-enter the engine, and the
    /// sanitizer must only walk the invariants once the outermost request
    /// has fully committed its state changes.
    request_depth: u32,
    /// Request-lifetime tracer ([`MemorySystem::set_trace`]): records
    /// cycle-stamped events into a shared bounded ring buffer. `None`
    /// (the default) records nothing and costs nothing. Strictly
    /// read-only over the architectural and metric state, so a traced
    /// run produces byte-identical results.
    tracer: Option<TracerState>,
}

/// Whether the sanitizer is on for new memory systems (`CGCT_SANITIZE`,
/// via the [`crate::config::env_knobs`] seam).
fn sanitize_default() -> bool {
    crate::config::env_knobs().sanitize
}

/// Requests between full invariant walks (`CGCT_SANITIZE_INTERVAL`,
/// minimum 1, default 65536, via the [`crate::config::env_knobs`] seam).
fn sanitize_interval_default() -> u64 {
    crate::config::env_knobs().sanitize_interval
}

impl MemorySystem {
    /// Builds the memory system for `cfg`, seeding the perturbation RNG.
    ///
    /// # Panics
    ///
    /// Panics when [`SystemConfig::validate`] rejects the configuration
    /// — today, a directory-backed or hierarchical machine with more
    /// than 64 nodes (the `DirEntry::sharers` bit-vector width).
    pub fn new(cfg: SystemConfig, seed: u64) -> Self {
        if let Err(err) = cfg.validate() {
            panic!("invalid system configuration: {err}");
        }
        let geom = cfg.geometry();
        let topo = cfg.topology;
        let nodes = (0..topo.total_cores())
            .map(|_| {
                let tracker = match cfg.mode {
                    CoherenceMode::Baseline => Tracker::None,
                    CoherenceMode::Cgct { .. } => {
                        // cgct-lint: allow(D006) this arm only matches CoherenceMode::Cgct, for which rca_config() is Some by construction
                        Tracker::Rca(RegionCoherenceArray::new(cfg.rca_config().expect("cgct")))
                    }
                    CoherenceMode::Scaled { sets, .. } => {
                        Tracker::Scaled(ScaledRca::new(sets, 2, geom))
                    }
                    CoherenceMode::RegionScout { .. } => {
                        Tracker::Scout(RegionScout::paper_default())
                    }
                    CoherenceMode::Directory => Tracker::None,
                    CoherenceMode::DirectoryCgct { .. } | CoherenceMode::Hierarchical { .. } => {
                        Tracker::Rca(RegionCoherenceArray::new(
                            // cgct-lint: allow(D006) these arms only match modes for which rca_config() is Some by construction
                            cfg.rca_config().expect("directory-cgct/hierarchical"),
                        ))
                    }
                };
                Node {
                    l1i: SetAssocArray::new(cfg.hierarchy.l1i.sets(), cfg.hierarchy.l1i.ways),
                    l1d: SetAssocArray::new(cfg.hierarchy.l1d.sets(), cfg.hierarchy.l1d.ways),
                    l2: SetAssocArray::new(cfg.hierarchy.l2.sets(), cfg.hierarchy.l2.ways),
                    lines: (!matches!(tracker, Tracker::None)).then(|| RegionLineIndex::new(geom)),
                    tracker,
                    prefetcher: StreamPrefetcher::paper_default(),
                    jetty: cfg.jetty_filter.then(JettyFilter::paper_default),
                }
            })
            .collect();
        let mcs: Vec<MemoryController> = (0..topo.total_chips())
            .map(|_| MemoryController::paper_default())
            .collect();
        let directories = (0..topo.total_chips())
            .map(|_| DirectoryController::new())
            .collect();
        let region_dir_caches = match cfg.mode {
            CoherenceMode::DirectoryCgct { sets, .. } => (0..topo.total_chips())
                .map(|_| RegionDirCache::new(sets))
                .collect(),
            _ => Vec::new(),
        };
        let cluster_dir = matches!(cfg.mode, CoherenceMode::Hierarchical { .. })
            .then(|| ClusterDirectory::new(topo.clusters()));
        let cluster_buses = match cfg.mode {
            CoherenceMode::Hierarchical { .. } => (0..topo.clusters())
                .map(|_| AddressNetwork::new())
                .collect(),
            _ => Vec::new(),
        };
        let rca_mode = matches!(
            cfg.mode,
            CoherenceMode::Cgct { .. }
                | CoherenceMode::DirectoryCgct { .. }
                | CoherenceMode::Hierarchical { .. }
        );
        MemorySystem {
            metrics: MemMetrics::new(cfg.traffic_window),
            metrics_epoch: Cycle::ZERO,
            holders: (rca_mode && topo.total_cores() <= 64).then(RegionHolders::default),
            directories,
            region_dir_caches,
            cluster_dir,
            cluster_buses,
            data_ports: vec![Cycle::ZERO; topo.total_cores()],
            events: EventQueue::new(),
            geom,
            topo,
            nodes,
            bus: AddressNetwork::new(),
            mcs,
            perturb: Xoshiro256pp::seed_from_u64(seed ^ 0xC6A4_A793_5BD1_E995),
            sample_countdown: 10_000,
            sanitize: sanitize_default(),
            sanitize_interval: sanitize_interval_default(),
            sanitize_countdown: sanitize_interval_default(),
            sanitize_checks: 0,
            request_depth: 0,
            tracer: None,
            cfg,
        }
    }

    /// Attaches a request-lifetime trace sink: every subsequent
    /// coherence-point request records cycle-stamped [`TraceEvent`]s
    /// (issue, bus grant, snoop resolution, DRAM access, retire, plus
    /// RCA hit/miss/evict/self-invalidate and DCBZ-elided counters)
    /// into it, keyed by a per-node request id.
    pub fn set_trace(&mut self, sink: SharedSink) {
        let nodes = self.nodes.len();
        self.tracer = Some(TracerState {
            sink,
            next_seq: vec![0; nodes],
        });
    }

    /// Detaches the trace sink (tracing off).
    pub fn clear_trace(&mut self) {
        self.tracer = None;
    }

    /// Enables or disables the runtime coherence sanitizer (overriding
    /// the `CGCT_SANITIZE` default).
    pub fn set_sanitize(&mut self, enabled: bool) {
        self.sanitize = enabled;
        self.sanitize_countdown = self.sanitize_interval;
    }

    /// Whether the runtime coherence sanitizer is enabled.
    pub fn sanitize(&self) -> bool {
        self.sanitize
    }

    /// Overrides the number of coherence-point requests between full
    /// sanitizer walks (overriding `CGCT_SANITIZE_INTERVAL`; minimum 1).
    pub fn set_sanitize_interval(&mut self, every: u64) {
        self.sanitize_interval = every.max(1);
        self.sanitize_countdown = self.sanitize_interval;
    }

    /// Number of full invariant walks the sanitizer has run.
    pub fn sanitize_checks(&self) -> u64 {
        self.sanitize_checks
    }

    /// One sanitizer step, taken as each top-level coherence-point
    /// request completes: every `sanitize_interval` requests, walk the
    /// complete cross-node invariant set.
    ///
    /// # Panics
    ///
    /// Panics with the violated invariant's description — a sanitized
    /// run must die loudly rather than publish corrupt results.
    fn sanitize_tick(&mut self) {
        self.sanitize_countdown -= 1;
        if self.sanitize_countdown == 0 {
            self.sanitize_countdown = self.sanitize_interval;
            self.sanitize_checks += 1;
            if let Err(err) = self.check_invariants() {
                panic!("coherence sanitizer: {err}");
            }
        }
    }

    /// The system's line/region geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Discards all metrics collected so far and restarts measurement at
    /// `now` — used after a cache-warming phase, as the paper's
    /// checkpoint-based methodology warms caches before timing.
    pub fn reset_metrics(&mut self, now: Cycle) {
        self.metrics = MemMetrics::new(self.cfg.traffic_window);
        self.metrics_epoch = now;
        // Events scheduled during warmup stay queued but stop counting
        // toward the delivered total, which restarts with the other
        // metrics.
        self.events.reset_delivered();
        for node in &mut self.nodes {
            match &mut node.tracker {
                Tracker::None => {}
                Tracker::Rca(r) => r.reset_stats(),
                Tracker::Scaled(s) => s.reset_stats(),
                Tracker::Scout(s) => s.reset_stats(),
            }
        }
        // Warmup-phase trace events are measurement noise: restart the
        // trace alongside the metrics so spans line up with them.
        if let Some(t) = &mut self.tracer {
            t.sink.clear();
            t.next_seq.fill(0);
        }
    }

    /// The metrics time origin (set by [`MemorySystem::reset_metrics`]).
    pub fn metrics_epoch(&self) -> Cycle {
        self.metrics_epoch
    }

    /// The cycle of the earliest pending memory completion event, if
    /// any. Informational: the run loop's clock follows the core
    /// wakeups alone (DESIGN.md "One clock").
    pub fn next_event_time(&self) -> Option<Cycle> {
        self.events.next_time()
    }

    /// Delivers every completion event due at or before `now`. Events
    /// are notifications, not actions — all architectural transitions
    /// were applied synchronously when the request was processed — so
    /// delivery just retires them from the queue and counts them.
    pub fn advance(&mut self, now: Cycle) {
        self.events.advance(now);
    }

    /// Completion events delivered since the metrics epoch.
    pub fn events_delivered(&self) -> u64 {
        self.events.delivered()
    }

    /// Completion events scheduled but not yet delivered.
    pub fn events_pending(&self) -> usize {
        self.events.len()
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Node `core`'s Region Coherence Array, if running in CGCT mode.
    pub fn rca(&self, core: CoreId) -> Option<&RegionCoherenceArray> {
        self.nodes[core.0].tracker.rca()
    }

    // ---------------------------------------------------------------
    // Checkpointing (Machine::snapshot / Machine::restore)
    // ---------------------------------------------------------------

    /// Serializes the complete dynamic state of the memory system:
    /// every cache array, coherence tracker, prefetcher and snoop
    /// filter, the bus and memory-controller clocks, the directories,
    /// the pending completion-event queue, the metrics, and the
    /// perturbation RNG. Construction parameters (config, geometry,
    /// topology) are not included — [`MemorySystem::restore_state`]
    /// targets a system built from the identical configuration and
    /// validates shapes as it goes.
    ///
    /// # Errors
    ///
    /// Fails when a trace sink is attached (traced runs are not
    /// checkpointable) or while a request is in flight.
    pub fn snap_state(&self) -> Result<cgct_sim::Json, String> {
        use cgct_sim::{Json, Snap};
        if self.tracer.is_some() {
            return Err("cannot snapshot a traced memory system".to_string());
        }
        if self.request_depth != 0 {
            return Err("cannot snapshot mid-request".to_string());
        }
        Ok(Json::obj([
            (
                "nodes",
                Json::Array(self.nodes.iter().map(Node::snap_state).collect()),
            ),
            ("bus", self.bus.snap()),
            ("mcs", self.mcs.snap()),
            ("directories", self.directories.snap()),
            ("region_dir_caches", self.region_dir_caches.snap()),
            (
                "cluster_dir",
                match &self.cluster_dir {
                    Some(d) => Json::Array(vec![d.snap()]),
                    None => Json::Null,
                },
            ),
            ("cluster_buses", self.cluster_buses.snap()),
            ("data_ports", self.data_ports.snap()),
            ("events", self.events.snap()),
            ("events_delivered", Json::u64(self.events.delivered())),
            ("metrics", self.metrics.snap()),
            ("metrics_epoch", self.metrics_epoch.snap()),
            ("perturb", self.perturb.snap()),
            (
                "sample_countdown",
                Json::u64(u64::from(self.sample_countdown)),
            ),
        ]))
    }

    /// Restores state captured by [`MemorySystem::snap_state`] into a
    /// system built from the identical configuration.
    ///
    /// The sanitizer's walk countdown restarts rather than resuming:
    /// the sanitizer is strictly read-only over architectural and
    /// metric state, so walk timing cannot affect results.
    ///
    /// # Errors
    ///
    /// Fails on malformed input, on any shape mismatch against the
    /// current configuration (node count, cache geometries, tracker
    /// variant, controller/directory/port counts), and on restored state
    /// that breaks an invariant of [`MemorySystem::check_invariants`] —
    /// say, region line counts that disagree with the caches — which
    /// would otherwise panic or corrupt results steps later.
    pub fn restore_state(&mut self, v: &cgct_sim::Json) -> Result<(), String> {
        use cgct_sim::snap::{elements, field, unsnap_field};
        use cgct_sim::Snap;
        let node_snaps = elements(field(v, "nodes")?)?;
        if node_snaps.len() != self.nodes.len() {
            return Err(format!(
                "snapshot has {} nodes, configuration has {}",
                node_snaps.len(),
                self.nodes.len()
            ));
        }
        let mcs: Vec<MemoryController> = unsnap_field(v, "mcs")?;
        if mcs.len() != self.mcs.len() {
            return Err(format!(
                "snapshot has {} memory controllers, configuration has {}",
                mcs.len(),
                self.mcs.len()
            ));
        }
        let directories: Vec<DirectoryController> = unsnap_field(v, "directories")?;
        if directories.len() != self.directories.len() {
            return Err(format!(
                "snapshot has {} directories, configuration has {}",
                directories.len(),
                self.directories.len()
            ));
        }
        let region_dir_caches: Vec<RegionDirCache> = unsnap_field(v, "region_dir_caches")?;
        if region_dir_caches.len() != self.region_dir_caches.len() {
            return Err(format!(
                "snapshot has {} region directory caches, configuration has {}",
                region_dir_caches.len(),
                self.region_dir_caches.len()
            ));
        }
        let cluster_dir = match (&self.cluster_dir, field(v, "cluster_dir")?) {
            (None, cgct_sim::Json::Null) => None,
            (Some(cur), cgct_sim::Json::Array(a)) if a.len() == 1 => {
                let d = ClusterDirectory::unsnap(&a[0])?;
                if d.clusters() != cur.clusters() {
                    return Err(format!(
                        "snapshot has {} clusters, configuration has {}",
                        d.clusters(),
                        cur.clusters()
                    ));
                }
                Some(d)
            }
            _ => return Err("cluster directory presence mismatch".to_string()),
        };
        let cluster_buses: Vec<AddressNetwork> = unsnap_field(v, "cluster_buses")?;
        if cluster_buses.len() != self.cluster_buses.len() {
            return Err(format!(
                "snapshot has {} cluster buses, configuration has {}",
                cluster_buses.len(),
                self.cluster_buses.len()
            ));
        }
        let data_ports: Vec<Cycle> = unsnap_field(v, "data_ports")?;
        if data_ports.len() != self.data_ports.len() {
            return Err(format!(
                "snapshot has {} data ports, configuration has {}",
                data_ports.len(),
                self.data_ports.len()
            ));
        }
        let geom = self.geom;
        for (i, (node, nv)) in self.nodes.iter_mut().zip(node_snaps).enumerate() {
            node.restore_state(geom, nv)
                .map_err(|e| format!("node[{i}]: {e}"))?;
        }
        self.bus = unsnap_field(v, "bus")?;
        self.mcs = mcs;
        self.directories = directories;
        self.region_dir_caches = region_dir_caches;
        self.cluster_dir = cluster_dir;
        self.cluster_buses = cluster_buses;
        self.data_ports = data_ports;
        self.events = unsnap_field(v, "events")?;
        self.events
            .set_delivered(unsnap_field(v, "events_delivered")?);
        self.metrics = unsnap_field(v, "metrics")?;
        self.metrics_epoch = unsnap_field(v, "metrics_epoch")?;
        self.perturb = unsnap_field(v, "perturb")?;
        let countdown: u64 = unsnap_field(v, "sample_countdown")?;
        self.sample_countdown =
            u32::try_from(countdown).map_err(|_| "sample countdown out of range".to_string())?;
        self.sanitize_countdown = self.sanitize_interval;
        if let Some(holders) = &mut self.holders {
            holders.map.clear();
            for (n, node) in self.nodes.iter().enumerate() {
                for (region, _) in node.tracker.rca().into_iter().flat_map(|rca| rca.iter()) {
                    holders.add(region, n);
                }
            }
        }
        self.check_invariants()
            .map_err(|e| format!("inconsistent snapshot: {e}"))
    }

    // ---------------------------------------------------------------
    // Core-facing request API
    // ---------------------------------------------------------------

    /// Instruction fetch of the line containing `addr`.
    pub fn ifetch(&mut self, core: CoreId, now: Cycle, addr: Addr) -> Cycle {
        let line = self.geom.line_of(addr);
        if self.nodes[core.0].l1i.access(line.0).is_some() {
            return now + 1;
        }
        let t = now + self.cfg.hierarchy.l2.latency;
        self.metrics.l2_accesses += 1;
        let done = if self.nodes[core.0].l2.access(line.0).is_some() {
            t
        } else {
            self.metrics.l2_misses += 1;
            // The fill happens inside the coherence engine.
            self.coherent_request(core, t, ReqKind::ReadShared, line, false)
        };
        if self.nodes[core.0].l2.access(line.0).is_some() {
            self.fill_l1i(core, line);
        }
        let done = self.perturbed(done);
        if done > now + 1 {
            self.events.schedule(done, MemEvent::FetchFill);
        }
        done
    }

    /// Data load. With exclusive prefetching enabled, a store-intent load
    /// that misses fetches a modifiable copy.
    pub fn load(&mut self, core: CoreId, now: Cycle, addr: Addr, store_intent: bool) -> Cycle {
        let line = self.geom.line_of(addr);
        if self.nodes[core.0].l1d.access(line.0).is_some() {
            return now + 1;
        }
        let t = now + self.cfg.hierarchy.l2.latency;
        self.metrics.l2_accesses += 1;
        let l2_state = self.nodes[core.0].l2.access(line.0).copied();
        let done = match l2_state {
            Some(_) => {
                self.note_prefetch_access(core, t, line, store_intent, true);
                t
            }
            None => {
                self.metrics.l2_misses += 1;
                self.note_prefetch_access(core, t, line, store_intent, false);
                let req = if store_intent && self.cfg.exclusive_prefetch {
                    ReqKind::ReadExclusive
                } else if self.cfg.shared_read_bypass
                    && self.nodes[core.0]
                        .tracker
                        .region_state(self.geom.region_of_line(line))
                        .is_some_and(|s| s.is_externally_clean())
                {
                    // §3.1 adaptive variant: take a shared copy straight
                    // from memory (safe: the region holds only unmodified
                    // copies) rather than broadcasting for an exclusive
                    // one. Stores to it will need an upgrade later.
                    ReqKind::ReadShared
                } else {
                    ReqKind::Read
                };
                let done = self.coherent_request(core, t, req, line, false);
                self.metrics.demand_latency.push_units(done - now);
                done
            }
        };
        // Fill L1D shared; stores upgrade separately.
        if self.nodes[core.0].l2.contains(line.0) {
            self.fill_l1d(core, line, MsiState::Shared);
        }
        let done = self.perturbed(done);
        if done > now + 1 {
            self.events.schedule(done, MemEvent::MshrFill);
        }
        done
    }

    /// Data store: obtains write permission and dirties the line.
    pub fn store(&mut self, core: CoreId, now: Cycle, addr: Addr) -> Cycle {
        let line = self.geom.line_of(addr);
        if self.nodes[core.0].l1d.access(line.0) == Some(&mut MsiState::Modified) {
            return now + 1;
        }
        let t = now + self.cfg.hierarchy.l2.latency;
        self.metrics.l2_accesses += 1;
        let l2_state = self.nodes[core.0].l2.access(line.0).copied();
        let done = match l2_state {
            Some(MoesiState::Modified) => t,
            Some(MoesiState::Exclusive) => {
                // Silent E -> M; the region's local part is already Dirty
                // (an E fill is FillKind::Exclusive).
                // cgct-lint: allow(D006) the match arm just observed this line present in L2; absence is a coherence bug, fail-stop
                *self.nodes[core.0].l2.access(line.0).expect("present") = MoesiState::Modified;
                t
            }
            Some(MoesiState::Shared) | Some(MoesiState::Owned) => {
                let done = self.coherent_request(core, t, ReqKind::Upgrade, line, false);
                // cgct-lint: allow(D006) the match arm just observed this line present in L2; absence is a coherence bug, fail-stop
                *self.nodes[core.0].l2.access(line.0).expect("present") = MoesiState::Modified;
                done
            }
            Some(MoesiState::Invalid) | None => {
                self.metrics.l2_misses += 1;
                self.note_prefetch_access(core, t, line, true, false);
                let done = self.coherent_request(core, t, ReqKind::ReadExclusive, line, false);
                self.metrics.demand_latency.push_units(done - now);
                done
            }
        };
        if self.nodes[core.0].l2.contains(line.0) {
            self.fill_l1d(core, line, MsiState::Modified);
        }
        let done = self.perturbed(done);
        if done > now + 1 {
            self.events.schedule(done, MemEvent::MshrFill);
        }
        done
    }

    /// `dcbz`: allocate the line zeroed and modifiable without reading
    /// memory.
    pub fn dcbz(&mut self, core: CoreId, now: Cycle, addr: Addr) -> Cycle {
        let line = self.geom.line_of(addr);
        let t = now + self.cfg.hierarchy.l2.latency;
        let l2_state = self.nodes[core.0].l2.access(line.0).copied();
        let done = match l2_state {
            Some(MoesiState::Modified) => t,
            Some(MoesiState::Exclusive) => {
                // cgct-lint: allow(D006) the match arm just observed this line present in L2; absence is a coherence bug, fail-stop
                *self.nodes[core.0].l2.access(line.0).expect("present") = MoesiState::Modified;
                t
            }
            _ => self.coherent_request(core, t, ReqKind::Dcbz, line, false),
        };
        if self.nodes[core.0].l2.contains(line.0) {
            // cgct-lint: allow(D006) the match arm just observed this line present in L2; absence is a coherence bug, fail-stop
            *self.nodes[core.0].l2.access(line.0).expect("present") = MoesiState::Modified;
        }
        self.fill_l1d(core, line, MsiState::Modified);
        let done = self.perturbed(done);
        if done > now + 1 {
            self.events.schedule(done, MemEvent::MshrFill);
        }
        done
    }

    // ---------------------------------------------------------------
    // Request-lifetime tracing
    // ---------------------------------------------------------------

    /// Allocates a request id and records its [`EventKind::Issue`];
    /// returns the `(node, seq)` key later milestones attach to, or
    /// `None` when tracing is off.
    fn trace_begin(
        &mut self,
        core: CoreId,
        now: Cycle,
        req: ReqKind,
        line: LineAddr,
        prefetch: bool,
    ) -> Option<(u8, u64)> {
        let t = self.tracer.as_mut()?;
        let node = core.0 as u8;
        let seq = t.next_seq[core.0];
        t.next_seq[core.0] += 1;
        t.sink.record(TraceEvent {
            node,
            seq,
            cycle: now.0,
            kind: EventKind::Issue {
                kind: trace_req_tag(req),
                category: trace_category(RequestCategory::of(req)),
                line: line.0,
                prefetch,
            },
        });
        Some((node, seq))
    }

    /// Records a milestone event for request `id` (no-op when `id` is
    /// `None`, i.e. tracing was off at issue).
    fn trace_ev(&mut self, id: Option<(u8, u64)>, cycle: Cycle, kind: EventKind) {
        if let (Some((node, seq)), Some(t)) = (id, self.tracer.as_mut()) {
            t.sink.record(TraceEvent {
                node,
                seq,
                cycle: cycle.0,
                kind,
            });
        }
    }

    /// Records the [`EventKind::Retire`] that closes request `id`'s span.
    fn trace_retire(&mut self, id: Option<(u8, u64)>, cycle: Cycle, path: PathTag) {
        self.trace_ev(id, cycle, EventKind::Retire { path });
    }

    /// Records an unkeyed (counter) event attributed to `node`.
    fn trace_unkeyed(&mut self, node: CoreId, cycle: Cycle, kind: EventKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.sink.record(TraceEvent {
                node: node.0 as u8,
                seq: UNKEYED,
                cycle: cycle.0,
                kind,
            });
        }
    }

    // ---------------------------------------------------------------
    // Coherence engine
    // ---------------------------------------------------------------

    /// Issues a coherence-point request and applies all state changes
    /// atomically; returns the completion time. For data requests the
    /// line is filled into the requester's L2.
    ///
    /// Nested requests (eviction write-backs out of
    /// [`MemorySystem::fill_l2`]) re-enter here; the sanitizer tick only
    /// fires once the outermost request has committed, when the global
    /// state is consistent again.
    fn coherent_request(
        &mut self,
        core: CoreId,
        now: Cycle,
        req: ReqKind,
        line: LineAddr,
        prefetch: bool,
    ) -> Cycle {
        self.request_depth += 1;
        let done = self.coherent_request_inner(core, now, req, line, prefetch);
        self.request_depth -= 1;
        if self.request_depth == 0 && self.sanitize {
            self.sanitize_tick();
        }
        done
    }

    fn coherent_request_inner(
        &mut self,
        core: CoreId,
        now: Cycle,
        req: ReqKind,
        line: LineAddr,
        prefetch: bool,
    ) -> Cycle {
        let region = self.geom.region_of_line(line);
        let mc = self.topo.mc_of_region(region);
        let dist = self.topo.distance(core, mc);
        let category = RequestCategory::of(req);
        self.metrics.requests.record(category);
        self.maybe_sample_rca(core);
        let tid = self.trace_begin(core, now, req, line, prefetch);
        if tid.is_some() {
            // Classify the RCA lookup (trackers that keep a region state).
            if let Some(state) = self.nodes[core.0].tracker.region_state(region) {
                let kind = if state.is_valid() {
                    EventKind::RcaHit { region: region.0 }
                } else {
                    EventKind::RcaMiss { region: region.0 }
                };
                self.trace_unkeyed(core, now, kind);
            }
        }
        let mut live = Live {
            ms: self,
            core,
            now,
            req,
            line,
            region,
            mc,
            dist,
            tid,
            arm: Arm::Local,
            resolved: now,
            clusters: None,
            grant: now,
            predicted_cached: false,
            bypassed: false,
            done: now,
            path: PathTag::Local,
        };
        live.arm = request::route(&mut live, core.0, req);
        match live.arm {
            Arm::Local => live.complete_locally(),
            Arm::Direct => live.direct(),
            Arm::Broadcast => live.broadcast(prefetch),
            Arm::Home(upkeep) => live.home(upkeep),
        }
    }

    /// The full-map directory at controller `mc` (Directory mode).
    pub fn directory(&self, mc: usize) -> &DirectoryController {
        &self.directories[mc]
    }

    /// The region-grain directory cache at controller `mc`
    /// (`DirectoryCgct` mode only).
    pub fn region_dir_cache(&self, mc: usize) -> Option<&RegionDirCache> {
        self.region_dir_caches.get(mc)
    }

    /// Requester-side region completion: installs/updates the region
    /// entry, keeping the RCA-holder mask in step, and flushes any
    /// displaced region out of the hierarchy.
    fn rca_local_complete(
        &mut self,
        core: CoreId,
        region: RegionAddr,
        fill: FillKind,
        resp: Option<MergedRegionResp>,
        mc: McId,
        now: Cycle,
    ) {
        let (allocated, victim) = self.nodes[core.0]
            .tracker
            .local_complete(region, fill, resp, mc.0 as u8);
        if let Some(holders) = &mut self.holders {
            if allocated {
                holders.add(region, core.0);
            }
            if let Some((victim, _)) = victim {
                holders.remove(victim, core.0);
            }
        }
        if let Some((victim, count)) = victim {
            self.trace_unkeyed(
                core,
                now,
                EventKind::RcaEvict {
                    region: victim.0,
                    lines: count,
                },
            );
            self.flush_region(core, now, victim);
        }
    }

    /// Delivers an external request to `region` to node `other`'s
    /// tracker. A self-invalidation leaves the RCA-holder mask and, when
    /// tracing, records a trace event stamped at `when`.
    fn tracker_external(
        &mut self,
        other: usize,
        region: RegionAddr,
        req: ReqKind,
        fill_exclusive: bool,
        when: Cycle,
    ) -> MergedRegionResp {
        let node = &mut self.nodes[other];
        let my_lines = match node.tracker {
            Tracker::Scout(_) => node.count_region_lines(self.geom, region),
            _ => 0,
        };
        let si_before = node.tracker.self_invalidations();
        let r = node.tracker.external(region, req, fill_exclusive, my_lines);
        if node.tracker.self_invalidations() > si_before {
            if let Some(holders) = &mut self.holders {
                holders.remove(region, other);
            }
            self.trace_unkeyed(
                CoreId(other),
                when,
                EventKind::RcaSelfInvalidate { region: region.0 },
            );
        }
        r
    }

    /// Hierarchical mode: notes a line of `region` appearing in node
    /// `node`'s L2 in the inter-cluster region directory. No-op in the
    /// other modes.
    fn cluster_note_cached(&mut self, node: usize, region: RegionAddr) {
        if let Some(dir) = &mut self.cluster_dir {
            dir.line_cached(region, self.topo.cluster_of(CoreId(node)));
        }
    }

    /// Hierarchical mode: notes a line of `region` leaving node
    /// `node`'s L2. No-op in the other modes.
    fn cluster_note_uncached(&mut self, node: usize, region: RegionAddr) {
        if let Some(dir) = &mut self.cluster_dir {
            dir.line_uncached(region, self.topo.cluster_of(CoreId(node)));
        }
    }

    /// Sanitizer: a request that skipped the home's directory lookup
    /// (or the home visit entirely) must not have required
    /// directory-driven work — the region claim said no other node
    /// holds any line of the region, so the action can name no cache
    /// that actually holds this line. Stale entries (from silent clean
    /// evictions) may still appear in the action; the resulting
    /// messages are the full-map protocol's usual harmless no-ops.
    fn assert_bypass_clean(&self, core: CoreId, req: ReqKind, line: LineAddr, action: &DirAction) {
        if !(cfg!(debug_assertions) || self.sanitize) {
            return;
        }
        let holds = |t: u8| {
            let t = t as usize;
            t != core.0
                && t < self.nodes.len()
                && self.nodes[t].l2.get(line.0).is_some_and(|s| s.is_valid())
        };
        let live_foreign_owner =
            matches!(action, DirAction::ForwardToOwner { owner, .. } if holds(*owner));
        if live_foreign_owner || action.invalidate().iter().any(|&t| holds(t)) {
            panic!(
                "coherence sanitizer: directory bypass for {core} {req:?} {line} \
                 required remote work ({action:?})"
            );
        }
    }

    /// §6 owner prediction: attempt to satisfy a data read from the
    /// predicted owner of an externally-dirty region, without a
    /// broadcast. Returns the completion time on a hit; `None` falls back
    /// to the normal broadcast (the probe's latency is *not* charged on a
    /// hitless region-state check, only on a real probe miss via the
    /// later broadcast's start time — conservatively folded into `now`).
    fn try_owner_predicted_read(
        &mut self,
        core: CoreId,
        now: Cycle,
        line: LineAddr,
        region: RegionAddr,
    ) -> Option<Cycle> {
        let state = self.nodes[core.0].tracker.region_state(region)?;
        if !state.is_externally_dirty() {
            return None;
        }
        let owner = self.nodes[core.0].tracker.owner_hint(region)?;
        let owner = CoreId(owner as usize);
        if owner == core || owner.0 >= self.nodes.len() {
            return None;
        }
        let owner_state = self.nodes[owner.0]
            .l2
            .get(line.0)
            .copied()
            .unwrap_or(MoesiState::Invalid);
        if !owner_state.must_supply() {
            // Probe miss: the broadcast that follows pays the wasted hop.
            self.metrics.owner_prediction_misses += 1;
            return None;
        }
        self.metrics.owner_prediction_hits += 1;
        self.metrics.cache_to_cache += 1;
        // The broadcast was avoided: account the request as point-to-point.
        self.metrics.direct.record(RequestCategory::DataReadWrite);
        // Reading a dirty line is invisible to third parties: an M owner
        // is the only holder, an O owner's other sharers keep their S
        // copies, and nobody's region state can become stale-unsafe (the
        // external parts only stay conservative).
        let out = snoop_line(owner_state, ReqKind::Read);
        self.apply_snooped_transition(owner.0, line, out.next, region);
        let _ = self.tracker_external(owner.0, region, ReqKind::Read, false, now);
        // Requester fills shared; the region entry stays externally dirty.
        let mc = self.topo.mc_of_region(region);
        self.rca_local_complete(core, region, FillKind::Shared, None, mc, now);
        self.fill_l2(core, line, MoesiState::Shared, now);
        let dist = self.topo.core_distance(core, owner);
        let done = now
            + self.cfg.latency.direct_request(dist)
            + self.cfg.hierarchy.l2.latency
            + self.cfg.latency.transfer_cpu(dist);
        let _ = self.reserve_data_port(owner, done);
        Some(self.reserve_data_port(core, done))
    }

    /// Applies a snooped line transition on node `other`, maintaining
    /// L1/L2 inclusion and the tracker's line counts.
    fn apply_snooped_transition(
        &mut self,
        other: usize,
        line: LineAddr,
        next: MoesiState,
        region: RegionAddr,
    ) {
        let geom = self.geom;
        if next == MoesiState::Invalid {
            let node = &mut self.nodes[other];
            let removed = node.l2_remove(geom, line).is_some();
            node.l1d.remove(line.0);
            node.l1i.remove(line.0);
            if let Some(j) = &mut node.jetty {
                j.remove(line);
            }
            node.tracker.line_uncached(region);
            if removed {
                self.cluster_note_uncached(other, region);
            }
        } else {
            let node = &mut self.nodes[other];
            if let Some(s) = node.l2.get_mut(line.0) {
                *s = next;
            }
            // Downgrade any modified L1 copy to shared.
            if let Some(s) = node.l1d.get_mut(line.0) {
                *s = MsiState::Shared;
            }
        }
    }

    /// Flushes every cached line of `victim` (an RCA-displaced region)
    /// out of the requester's hierarchy, writing dirty lines back
    /// directly to the region's controller.
    fn flush_region(&mut self, core: CoreId, now: Cycle, victim: RegionAddr) {
        // Most displaced regions cache nothing (§3.2: 65.1%); the index
        // answers that without touching the L2 at all. Only a region
        // tracker displaces regions, and every tracked node is indexed.
        let Some(index) = &self.nodes[core.0].lines else {
            unreachable!("node {core} displaced a region but keeps no line index")
        };
        let exact = index.exact;
        let Some(&(count, mask)) = index.map.get(&victim.0) else {
            return;
        };
        let mc = self.topo.mc_of_region(victim);
        let dist = self.topo.distance(core, mc);
        let mut remaining = count;
        for line in self.geom.lines_in_region(victim) {
            if remaining == 0 {
                break;
            }
            if exact && mask & (1u128 << self.geom.line_index_in_region(line)) == 0 {
                continue;
            }
            let Some(state) = self.nodes[core.0].l2_remove(self.geom, line) else {
                continue;
            };
            remaining -= 1;
            self.metrics.inclusion_flushes += 1;
            self.nodes[core.0].l1d.remove(line.0);
            self.nodes[core.0].l1i.remove(line.0);
            if let Some(j) = &mut self.nodes[core.0].jetty {
                j.remove(line);
            }
            // The RCA entry is already gone (that is why we are
            // flushing), but the inter-cluster directory still counts
            // the line.
            self.cluster_note_uncached(core.0, victim);
            if state.is_dirty() {
                // Routed direct: the displaced entry's controller index is
                // known. Counted as a write-back request, so it also gets
                // its own (zero-length) trace span: every counted request
                // must retire exactly one span.
                self.metrics.requests.record(RequestCategory::Writeback);
                self.metrics.direct.record(RequestCategory::Writeback);
                let wtid = self.trace_begin(core, now, ReqKind::Writeback, line, false);
                let arrive = now + self.cfg.latency.direct_request(dist);
                self.mcs[mc.0].start_access_event(arrive, &mut self.events, None);
                self.trace_retire(wtid, now, PathTag::Direct);
            }
        }
    }

    /// Allocates `line` into the requester's L2 with `state`, handling
    /// the displaced line (write-back + inclusion) and region line
    /// counts.
    fn fill_l2(&mut self, core: CoreId, line: LineAddr, state: MoesiState, now: Cycle) {
        let region = self.geom.region_of_line(line);
        if let Some(s) = self.nodes[core.0].l2.get_mut(line.0) {
            *s = state;
            return;
        }
        let displaced = self.nodes[core.0].l2_insert(self.geom, line, state);
        if let Some(j) = &mut self.nodes[core.0].jetty {
            j.insert(line);
        }
        if let Some((victim_key, victim_state)) = displaced {
            let victim_line = LineAddr(victim_key);
            let victim_region = self.geom.region_of_line(victim_line);
            self.nodes[core.0].l1d.remove(victim_key);
            self.nodes[core.0].l1i.remove(victim_key);
            if let Some(j) = &mut self.nodes[core.0].jetty {
                j.remove(victim_line);
            }
            self.nodes[core.0].tracker.line_uncached(victim_region);
            self.cluster_note_uncached(core.0, victim_region);
            if victim_state.is_dirty() {
                self.issue_writeback(core, now, victim_line);
            }
        }
        self.nodes[core.0].tracker.line_cached(region);
        self.cluster_note_cached(core.0, region);
    }

    /// Issues a write-back request for `line` (already removed from L2).
    fn issue_writeback(&mut self, core: CoreId, now: Cycle, line: LineAddr) {
        let _ = self.coherent_request(core, now, ReqKind::Writeback, line, false);
    }

    fn fill_l1d(&mut self, core: CoreId, line: LineAddr, state: MsiState) {
        let node = &mut self.nodes[core.0];
        if let Some(s) = node.l1d.get_mut(line.0) {
            if state == MsiState::Modified {
                *s = MsiState::Modified;
            }
            node.l1d.touch(line.0);
            return;
        }
        // Displaced L1 lines need no action: their state (including
        // dirtiness) is already reflected at the L2.
        let _ = node.l1d.insert_lru(line.0, state);
    }

    fn fill_l1i(&mut self, core: CoreId, line: LineAddr) {
        let _ = self.nodes[core.0].l1i.insert_lru(line.0, ());
    }

    /// Feeds the stream prefetcher and issues any prefetches it wants.
    fn note_prefetch_access(
        &mut self,
        core: CoreId,
        now: Cycle,
        line: LineAddr,
        store_intent: bool,
        _l2_hit: bool,
    ) {
        if !self.cfg.stream_prefetch {
            return;
        }
        let wants = self.nodes[core.0]
            .prefetcher
            .on_miss(line, store_intent && self.cfg.exclusive_prefetch);
        for pf in wants {
            if self.nodes[core.0].l2.contains(pf.line.0) {
                continue;
            }
            // §6 extension: lines in externally-dirty regions are poor
            // prefetch candidates (likely modified elsewhere; fetching
            // them steals dirty data other cores are still using).
            if self.cfg.region_prefetch_filter {
                let pf_region = self.geom.region_of_line(pf.line);
                if self.nodes[core.0]
                    .tracker
                    .region_state(pf_region)
                    .is_some_and(|s| s.is_externally_dirty())
                {
                    self.metrics.prefetches_filtered += 1;
                    continue;
                }
            }
            self.metrics.prefetches += 1;
            let req = if pf.exclusive {
                ReqKind::ReadExclusive
            } else {
                ReqKind::Read
            };
            let _ = self.coherent_request(core, now, req, pf.line, true);
        }
    }

    fn maybe_sample_rca(&mut self, core: CoreId) {
        self.sample_countdown -= 1;
        if self.sample_countdown == 0 {
            self.sample_countdown = 10_000;
            if let Some(rca) = self.nodes[core.0].tracker.rca() {
                if !rca.is_empty() {
                    self.metrics
                        .lines_per_region_samples
                        .push_milli(rca.mean_lines_per_region_milli());
                }
            }
        }
    }

    /// Serializes a line transfer through `node`'s data port: the
    /// transfer completes no earlier than the port frees up, and occupies
    /// it for the configured time afterwards.
    fn reserve_data_port(&mut self, node: CoreId, done: Cycle) -> Cycle {
        let occ = self.cfg.data_port_occupancy;
        if occ == 0 {
            return done;
        }
        let actual = done.max(self.data_ports[node.0]);
        self.data_ports[node.0] = actual + occ;
        self.events.schedule(actual + occ, MemEvent::DataPortFree);
        actual
    }

    fn perturbed(&mut self, done: Cycle) -> Cycle {
        if self.cfg.perturbation == 0 {
            done
        } else {
            done + self.perturb.gen_range(0..=self.cfg.perturbation)
        }
    }

    // ---------------------------------------------------------------
    // Invariant checking
    // ---------------------------------------------------------------

    /// Verifies the global coherence invariants I1–I6 ([`invariants`],
    /// the set the model checker proves) over every region the machine
    /// caches, tracks or summarizes, and the state only the live machine
    /// derives: L1 inclusion, the region-directory caches' homes, the
    /// region-line index, the RCA-holder mask and the cluster directory.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let held = |n: &Node| n.l2.len() + n.tracker.rca().map_or(0, |rca| rca.len());
        let mut facts = Vec::with_capacity(self.nodes.iter().map(held).sum());
        for (node, n) in self.nodes.iter().enumerate() {
            let (l1d, l1i) = (n.l1d.iter().map(|e| e.0), n.l1i.iter().map(|e| e.0));
            if let Some(key) = l1d.chain(l1i).find(|&key| !n.l2.contains(key)) {
                return Err(format!("node {node}: L1 line {key:#x} not in L2"));
            }
            for (key, &state) in n.l2.iter() {
                let (line, region) = (LineAddr(key), self.geom.region_of_line(LineAddr(key)));
                facts.push((region, Fact::Copy(LineCopy { line, node, state })));
            }
            for (region, e) in n.tracker.rca().into_iter().flat_map(|rca| rca.iter()) {
                let (state, count) = (e.state, e.line_count);
                facts.push((region, Fact::Entry(RegionEntry { node, state, count })));
            }
        }
        for (m, cache) in self.region_dir_caches.iter().enumerate() {
            for (region, mask) in cache.entries() {
                if self.topo.mc_of_region(region).0 != m {
                    return Err(format!(
                        "mc{m}: region directory cache holds foreign region {region}"
                    ));
                }
                facts.push((region, Fact::DirCache(mask)));
            }
        }
        // Region by region: entries by node, the cache mask, then copies
        // by line and node.
        let rank = |fact: &Fact| match *fact {
            Fact::Entry(e) => (0, LineAddr(0), e.node),
            Fact::DirCache(_) => (1, LineAddr(0), 0),
            Fact::Copy(c) => (2, c.line, c.node),
        };
        facts.sort_unstable_by_key(|&(region, _)| region);
        for run in facts.chunk_by_mut(|a, b| a.0 == b.0) {
            run.sort_unstable_by_key(|(_, fact)| rank(fact));
        }
        let regions: Vec<_> = facts
            .chunk_by(|a, b| a.0 == b.0)
            .map(|facts| LiveRegion {
                mem: self,
                region: facts[0].0,
                facts,
            })
            .collect();
        invariants::check(&regions)?;
        self.check_region_line_index(&regions)?;
        self.check_holder_mask(&regions)?;
        self.check_cluster_directory(&regions)
    }

    /// Every node with a region tracker, and only those, keeps the
    /// region->cached-lines reverse index, and it agrees with the L2 (it
    /// is the hot-path source of region line counts, so drift here
    /// corrupts results): each indexed region's count and line mask
    /// match the node's copies, and the counts add up to the whole L2.
    fn check_region_line_index(&self, regions: &[LiveRegion<'_>]) -> Result<(), String> {
        for (n, node) in self.nodes.iter().enumerate() {
            let index = match (&node.lines, matches!(node.tracker, Tracker::None)) {
                (Some(index), false) => index,
                (None, true) => continue,
                (Some(_), true) => return Err(format!("node {n}: a line index but no tracker")),
                (None, false) => return Err(format!("node {n}: a tracker but no line index")),
            };
            let mut indexed = 0;
            for (&region, &got) in &index.map {
                let at = regions.binary_search_by_key(&region, |r| r.region.0);
                let copies = at.into_iter().flat_map(|i| regions[i].copies());
                let want = copies
                    .filter(|c| c.node == n)
                    .fold((0, 0), |(count, mask), c| {
                        let at = self.geom.line_index_in_region(c.line);
                        let bit = if index.exact { 1u128 << at } else { 0 };
                        (count + 1, mask | bit)
                    });
                if got != want {
                    return Err(format!(
                        "node {n}: region index for {region:#x} is {got:?}, L2 says {want:?}"
                    ));
                }
                indexed += got.0 as usize;
            }
            if indexed != node.l2.len() {
                let held = node.l2.len();
                return Err(format!(
                    "node {n}: region index covers {indexed} of {held} L2 lines"
                ));
            }
        }
        Ok(())
    }

    /// The RCA-holder mask: bit n is set exactly when node n's RCA has
    /// an entry for the region, and it lists no other region (the snoop
    /// loops skip every node off the mask).
    fn check_holder_mask(&self, regions: &[LiveRegion<'_>]) -> Result<(), String> {
        let Some(holders) = &self.holders else {
            return Ok(());
        };
        let held = regions.iter().filter(|r| r.entries().next().is_some());
        for r in held.clone() {
            let want = r.entries().fold(0, |mask, e| mask | 1 << e.node);
            let got = holders.mask(r.region);
            if got != want {
                return Err(format!(
                    "holder mask for region {} is {got:#b} but the RCAs hold {want:#b}",
                    r.region
                ));
            }
        }
        let (listed, held) = (holders.map.len(), held.count());
        if listed != held {
            return Err(format!(
                "holder mask lists {listed} region(s) but the RCAs hold {held}"
            ));
        }
        Ok(())
    }

    /// Inter-cluster region directory exactness (Hierarchical):
    /// per-cluster line counts match the caches exactly, and no stale
    /// rows linger — an over-count only costs a wasted cluster visit,
    /// but an under-count skips a required snoop.
    fn check_cluster_directory(&self, regions: &[LiveRegion<'_>]) -> Result<(), String> {
        let Some(dir) = &self.cluster_dir else {
            return Ok(());
        };
        let mut cached = 0;
        for r in regions.iter().filter(|r| r.copies().next().is_some()) {
            cached += 1;
            for c in 0..dir.clusters() {
                let copies = r
                    .copies()
                    .filter(|l| self.topo.cluster_of(CoreId(l.node)) == c);
                let (got, want) = (dir.count(r.region, c), copies.count() as u32);
                if got != want {
                    return Err(format!(
                        "cluster directory: region {} cluster {c} count {got} but the \
                         caches hold {want} line(s)",
                        r.region
                    ));
                }
            }
        }
        if dir.tracked_regions() != cached {
            return Err(format!(
                "cluster directory tracks {} region(s) but the caches cover {cached}",
                dir.tracked_regions()
            ));
        }
        Ok(())
    }

    /// Gate for [`MemorySystem::direct_decision_error`]: always checked
    /// in debug builds, and in release builds when the sanitizer is on.
    ///
    /// # Panics
    ///
    /// Panics with the error description when the no-broadcast decision
    /// was unsafe.
    fn check_direct_decision(&self, core: CoreId, req: ReqKind, line: LineAddr) {
        if cfg!(debug_assertions) || self.sanitize {
            if let Some(err) = self.direct_decision_error(core, req, line) {
                panic!("coherence sanitizer: {err}");
            }
        }
    }

    /// Validates one request that bypassed the broadcast: the oracle's
    /// rule — other caches' actual states make the broadcast unnecessary
    /// — must hold (write-backs always qualify), and if the bypass rests
    /// on an exclusive region claim, no other node may cache lines of
    /// the region at all. Returns a description of the violation, or
    /// `None` when the bypass was safe.
    fn direct_decision_error(&self, core: CoreId, req: ReqKind, line: LineAddr) -> Option<String> {
        if req == ReqKind::Writeback {
            return None;
        }
        let copies = self.nodes.iter().enumerate().filter_map(|(node, n)| {
            let &state = n.l2.get(line.0)?;
            Some(LineCopy { line, node, state })
        });
        let resp = invariants::remote_response(core.0, copies);
        if !cgct_cache::broadcast_unnecessary(req, resp) {
            return Some(format!(
                "unsafe bypass: core {core} {req:?} line {line} with external {resp:?}"
            ));
        }
        let region = self.geom.region_of_line(line);
        let claim = self.nodes[core.0].tracker.region_state(region);
        if !claim.is_some_and(|s| s.is_exclusive()) {
            return None;
        }
        let cached = |n: &Node| n.count_region_lines(self.geom, region);
        let mut others = (0..)
            .zip(&self.nodes)
            .filter(|&(i, n)| i != core.0 && cached(n) > 0);
        let (i, node) = others.next()?;
        Some(format!(
            "stale exclusive claim: core {core} holds region {region} \
             exclusive but node {i} caches {} line(s) of it",
            cached(node)
        ))
    }

    /// Test/inspection helper: the MOESI state of `line` at node `core`.
    pub fn l2_state(&self, core: CoreId, line: LineAddr) -> MoesiState {
        self.nodes[core.0]
            .l2
            .get(line.0)
            .copied()
            .unwrap_or(MoesiState::Invalid)
    }
}

/// One coherence-point request in flight: the live [`Store`] that the
/// request core ([`crate::request`]) steps. Every line, region and home
/// transition of an arm comes from the core; this driver adds the
/// timing, metrics, tracing and live-only checks, carrying the
/// request's timing context from hook to hook.
struct Live<'a> {
    ms: &'a mut MemorySystem,
    core: CoreId,
    now: Cycle,
    req: ReqKind,
    line: LineAddr,
    region: RegionAddr,
    mc: McId,
    dist: DistanceClass,
    tid: Option<(u8, u64)>,
    arm: Arm,
    /// When the snoop or the home lookup resolved; region
    /// self-invalidations are stamped here.
    resolved: Cycle,
    /// Broadcast arm: the requester's cluster and the mask of remote
    /// clusters visited (`None` on the flat bus), the bus grant, and
    /// whether the region state predicted a cache supplier.
    clusters: Option<(usize, u64)>,
    grant: Cycle,
    predicted_cached: bool,
    /// Home arm: the lookup was bypassed.
    bypassed: bool,
    /// Data arrival and path, set by the before-fill hook.
    done: Cycle,
    path: PathTag,
}

impl Live<'_> {
    /// Whether `other` sits in a remote cluster the cluster filter
    /// skipped.
    fn skipped(&self, other: usize) -> bool {
        self.clusters.is_some_and(|(mine, visit)| {
            let c = self.ms.topo.cluster_of(CoreId(other));
            c != mine && visit & (1 << c) == 0
        })
    }

    /// The complete-locally arm: no interconnect traffic at all.
    fn complete_locally(&mut self) -> Cycle {
        let (core, now) = (self.core, self.now);
        self.ms.metrics.local.record(RequestCategory::of(self.req));
        self.ms.check_direct_decision(core, self.req, self.line);
        request::complete_locally(self, core.0, self.line, self.req);
        if self.req == ReqKind::Dcbz {
            let elided = EventKind::DcbzElided { line: self.line.0 };
            self.ms.trace_unkeyed(core, now, elided);
        }
        self.ms.trace_retire(self.tid, now, PathTag::Local);
        now
    }

    /// The bus machines' direct-to-memory arm: a point-to-point request
    /// to the region's controller.
    fn direct(&mut self) -> Cycle {
        let core = self.core;
        self.ms.metrics.direct.record(RequestCategory::of(self.req));
        // Safety net: a direct request must never be issued when the
        // broadcast was actually required — the CGCT-transparency
        // invariant. Always on in debug builds, and in release builds
        // under the sanitizer.
        self.ms.check_direct_decision(core, self.req, self.line);
        let out = request::direct(self, core.0, self.line, self.req);
        if self.req == ReqKind::Writeback {
            return self.writeback(PathTag::Direct);
        }
        if out.fill.is_some() {
            self.ms.metrics.memory_fills += u64::from(self.req.needs_data());
            self.ms.trace_ev(self.tid, self.done, EventKind::Fill);
            self.done = self.ms.reserve_data_port(core, self.done);
        }
        self.ms.trace_retire(self.tid, self.done, PathTag::Direct);
        self.done
    }

    /// A write-back delivered point-to-point to the controller,
    /// fire-and-forget.
    fn writeback(&mut self, path: PathTag) -> Cycle {
        let ms = &mut *self.ms;
        let _ = ms.reserve_data_port(self.core, self.now);
        let arrive = self.now + ms.cfg.latency.direct_request(self.dist);
        ms.mcs[self.mc.0].start_access_event(arrive, &mut ms.events, None);
        ms.trace_retire(self.tid, self.now, path);
        self.now
    }

    /// The broadcast arm of the flat bus and the cluster hierarchy.
    fn broadcast(&mut self, prefetch: bool) -> Cycle {
        let (core, now, req, line, region) =
            (self.core, self.now, self.req, self.line, self.region);
        let ms = &mut *self.ms;
        // §6 extension: for data reads into an externally-dirty region,
        // probe the predicted owner point-to-point first; a hit is a
        // two-hop cache-to-cache transfer with no broadcast at all.
        if ms.cfg.owner_prediction && req == ReqKind::Read && !prefetch {
            if let Some(done) = ms.try_owner_predicted_read(core, now, line, region) {
                ms.trace_retire(self.tid, done, PathTag::OwnerPredicted);
                return done;
            }
        }
        // §6 extension: the region state predicts whether the data will
        // come from another cache, letting the memory controller skip
        // its speculative DRAM access.
        self.predicted_cached = ms.cfg.dram_speculation_filter
            && ms.nodes[core.0]
                .tracker
                .region_state(region)
                .is_some_and(|s| s.is_externally_dirty());
        // The hierarchical machine is the flat bus split into cluster
        // buses: the requester's own cluster is always snooped, and
        // `visit` masks the remote clusters that the inter-cluster
        // region directory records as caching lines of the region.
        self.clusters = ms.cluster_dir.as_ref().map(|dir| {
            let (mine, others) = (ms.topo.cluster_of(core), ms.topo.clusters() - 1);
            let visit = (0..=others)
                .filter(|&c| c != mine && dir.count(region, c) > 0)
                .fold(0u64, |mask, c| mask | 1 << c);
            ms.metrics.cluster_snoops_filtered += (others - visit.count_ones() as usize) as u64;
            if visit == 0 {
                ms.metrics.cluster_local_requests += 1;
            } else {
                ms.metrics.cross_cluster_requests += 1;
            }
            (mine, visit)
        });
        let bus = match self.clusters {
            Some((mine, _)) => &mut ms.cluster_buses[mine],
            None => &mut ms.bus,
        };
        let grant = bus.grant_event(now, &mut ms.events, trace_arg!(ms, self.tid));
        ms.metrics.broadcasts += 1;
        ms.metrics
            .traffic
            .record(grant.saturating_sub(ms.metrics_epoch.0));
        // The local snoop resolves first; each visited remote cluster's
        // snoop is launched off the local grant and pays a cross-machine
        // hop each way (plus that cluster's own bus arbitration).
        let mut snoop_done = grant + ms.cfg.latency.snoop_cpu();
        let hop = ms.cfg.latency.direct_request(DistanceClass::Remote);
        let mut remote = self.clusters.map_or(0, |(_, visit)| visit);
        while remote != 0 {
            let c = remote.trailing_zeros() as usize;
            remote &= remote - 1;
            let remote_grant = ms.cluster_buses[c].grant_event(grant + hop, &mut ms.events, None);
            snoop_done = snoop_done.max(remote_grant + ms.cfg.latency.snoop_cpu() + hop);
        }
        ms.events.schedule(snoop_done, MemEvent::SnoopComplete);
        (self.grant, self.resolved) = (grant, snoop_done);
        // Sanitizer: a skipped cluster must cache nothing of the region —
        // the filter may only skip true negatives. The snoop never
        // reaches a skipped node, so checking before it is the same.
        if self.clusters.is_some() && (cfg!(debug_assertions) || self.ms.sanitize) {
            for other in (0..self.ms.nodes.len()).filter(|&o| self.skipped(o)) {
                let cached = self.ms.nodes[other].count_region_lines(self.ms.geom, region);
                if cached > 0 {
                    panic!(
                        "coherence sanitizer: cluster filter skipped cluster {} but \
                         node {other} caches {cached} line(s) of {region}",
                        self.ms.topo.cluster_of(CoreId(other))
                    );
                }
            }
        }
        let out = request::broadcast(self, core.0, line, req);
        // Oracle classification (Figure 2) on what was broadcast.
        if classify(req, out.line_resp).unnecessary {
            self.ms.metrics.unnecessary.record(RequestCategory::of(req));
        }
        self.ms.trace_retire(self.tid, self.done, self.path);
        self.done
    }

    /// Data movement of a broadcast. The baseline memory controller
    /// starts the DRAM access speculatively in parallel with the snoop
    /// (Figure 6); if an owner cache supplies the data that access was
    /// wasted — unless the region-state predictor suppressed it (§6
    /// extension). Data cannot be handed over before every visited
    /// cluster's snoop response is in; on the flat bus that bound never
    /// binds. The flat bus tags the data source, the hierarchy how far
    /// the snoop reached.
    fn broadcast_data(&mut self, out: &Outcome) {
        let ms = &mut *self.ms;
        let (core, mc, tid) = (self.core, self.mc, self.tid);
        let (grant, snoop_done) = (self.grant, self.resolved);
        // Remember who supplied dirty data: the owner hint feeds the §6
        // owner predictor.
        if let Some(owner) = out.supplier {
            ms.nodes[core.0]
                .tracker
                .record_supplier(self.region, owner as u8);
        }
        let clusters = self.clusters;
        let path = |flat: PathTag| match clusters {
            None => flat,
            Some((_, 0)) => PathTag::ClusterLocal,
            Some(_) => PathTag::ClusterRemote,
        };
        (self.done, self.path) = if self.req.needs_data() {
            if let Some(owner) = out.supplier.map(CoreId) {
                ms.metrics.cache_to_cache += 1;
                if self.predicted_cached {
                    ms.metrics.dram_speculation_saved += 1;
                } else {
                    ms.metrics.dram_speculation_wasted += 1;
                    // Wasted speculative access: off the critical path,
                    // so it leaves no trace milestone.
                    ms.mcs[mc.0].start_access_event(grant, &mut ms.events, None);
                }
                let d = ms.topo.core_distance(core, owner);
                let supplied = (grant + ms.cfg.latency.cache_to_cache(d)).max(snoop_done);
                let _ = ms.reserve_data_port(owner, supplied);
                ms.trace_ev(tid, supplied, EventKind::Fill);
                (
                    ms.reserve_data_port(core, supplied),
                    path(PathTag::BroadcastCache),
                )
            } else {
                ms.metrics.memory_fills += 1;
                // A wrong "cached" prediction must restart the DRAM
                // access after the snoop resolves.
                let dram_at = if self.predicted_cached {
                    snoop_done
                } else {
                    grant
                };
                let dram_start =
                    ms.mcs[mc.0].start_access_event(dram_at, &mut ms.events, trace_arg!(ms, tid));
                let latency = ms.cfg.latency;
                ms.trace_ev(
                    tid,
                    dram_start + latency.dram.as_cpu_cycles(),
                    EventKind::DramDone,
                );
                let base = if self.predicted_cached {
                    // Serialized: full snoop, then full DRAM+transfer.
                    latency.snoop_cpu()
                        + latency.dram.as_cpu_cycles()
                        + latency.transfer_cpu(self.dist)
                } else {
                    latency.snoop_memory_access(self.dist)
                };
                let arrived = (grant + base + (dram_start - dram_at)).max(snoop_done);
                ms.trace_ev(tid, arrived, EventKind::Fill);
                (
                    ms.reserve_data_port(core, arrived),
                    path(PathTag::BroadcastMemory),
                )
            }
        } else if self.req == ReqKind::Writeback {
            let _ = ms.reserve_data_port(core, self.now);
            ms.mcs[mc.0].start_access_event(snoop_done, &mut ms.events, None);
            (self.now, path(PathTag::BroadcastControl))
        } else {
            (snoop_done, path(PathTag::BroadcastControl))
        };
    }

    /// The directory machines' home arm: every request travels
    /// point-to-point to the line's home controller; owned lines are
    /// forwarded (three hops), everything else is served from memory.
    ///
    /// The home lookup is itself a DRAM access (full-map state lives in
    /// memory, as in the SGI Origin), and memory-sourced fills pay a
    /// *second*, serialized DRAM access for the data. A region claim
    /// (`Upkeep::DirectFill`) or the home's region-grain directory
    /// cache can prove the lookup redundant; then only the request hop
    /// is charged. The per-line directory is updated either way: the
    /// bypass is a latency optimization, never a bookkeeping one.
    fn home(&mut self, upkeep: Upkeep) -> Cycle {
        let (core, req, line) = (self.core, self.req, self.line);
        if upkeep == Upkeep::DirectFill {
            // §5 direct-to-memory, directory flavor.
            self.ms.check_direct_decision(core, req, line);
        }
        self.ms.metrics.direct.record(RequestCategory::of(req));
        let out = request::home(self, upkeep, core.0, line, req);
        if req == ReqKind::Writeback {
            return self.writeback(PathTag::DirectoryControl);
        }
        // Invalidations travel home -> target -> home.
        let (ms, mc) = (&*self.ms, self.mc);
        let hop = |t: u8| {
            ms.cfg
                .latency
                .direct_request(ms.topo.distance(CoreId(t as usize), mc))
        };
        let targets = out.home.as_ref().map_or(&[][..], DirAction::invalidate);
        let others = targets.iter().filter(|&&t| t as usize != core.0);
        let inval_latency = others.map(|&t| 2 * hop(t)).fold(0, u64::max);
        let done = self.done.max(self.resolved + inval_latency);
        self.ms.trace_retire(self.tid, done, self.path);
        done
    }

    /// Data movement at the home, after the forward (if any) applied.
    fn home_data(&mut self, out: &Outcome) {
        let Some(action) = &out.home else {
            return;
        };
        let ms = &mut *self.ms;
        let (core, mc, tid, dir_done) = (self.core, self.mc, self.tid, self.resolved);
        let dram = ms.cfg.latency.dram.as_cpu_cycles();
        (self.done, self.path) = match action {
            DirAction::ForwardToOwner { owner, .. } => {
                let o = CoreId(*owner as usize);
                let fwd = ms.cfg.latency.direct_request(ms.topo.distance(o, mc));
                if out.owner_live {
                    // Three-hop transfer: home -> owner -> requester.
                    ms.metrics.cache_to_cache += 1;
                    ms.metrics.three_hop_transfers += 1;
                    let supply = ms.cfg.hierarchy.l2.latency
                        + ms.cfg.latency.transfer_cpu(ms.topo.core_distance(core, o));
                    let supplied = dir_done + fwd + supply;
                    let _ = ms.reserve_data_port(o, supplied);
                    ms.trace_ev(tid, supplied, EventKind::Fill);
                    (
                        ms.reserve_data_port(core, supplied),
                        PathTag::DirectoryForwarded,
                    )
                } else {
                    // Stale owner (silently evicted a clean E copy): the
                    // home retries from memory after the failed forward.
                    let dram_start =
                        ms.mcs[mc.0].start_access_event(dir_done + 2 * fwd, &mut ms.events, None);
                    ms.metrics.memory_fills += u64::from(self.req.needs_data());
                    (
                        dram_start + dram + ms.cfg.latency.transfer_cpu(self.dist),
                        PathTag::DirectoryMemory,
                    )
                }
            }
            DirAction::FromMemory { .. } if self.req.needs_data() => {
                // The data is its own DRAM access, serialized after the
                // directory lookup — or started at once when the lookup
                // was bypassed.
                ms.metrics.memory_fills += 1;
                let dram_start =
                    ms.mcs[mc.0].start_access_event(dir_done, &mut ms.events, trace_arg!(ms, tid));
                let arrived = dram_start + dram + ms.cfg.latency.transfer_cpu(self.dist);
                ms.trace_ev(tid, arrived, EventKind::Fill);
                let path = if self.bypassed {
                    PathTag::DirectoryBypassed
                } else {
                    PathTag::DirectoryMemory
                };
                (ms.reserve_data_port(core, arrived), path)
            }
            // No data moves for upgrades and invalidate-only requests;
            // keep them out of the memory/bypassed fill populations so
            // those two differ only by the lookup DRAM access.
            _ => (dir_done, PathTag::DirectoryControl),
        };
    }
}

impl Store for Live<'_> {
    fn machine(&self) -> Machine {
        match self.ms.cfg.mode {
            CoherenceMode::Directory => Machine::Directory,
            CoherenceMode::DirectoryCgct { .. } => Machine::DirectoryCgct,
            _ => Machine::Bus,
        }
    }

    fn line(&self, node: usize, line: LineAddr) -> MoesiState {
        self.ms.l2_state(CoreId(node), line)
    }

    /// With the RCA-holder mask and no Jetty filter, every visible
    /// node's tag lookup is counted but only the region's RCA holders
    /// are probed: any other node caches no line of the region, so its
    /// lookup would find Invalid and change nothing.
    fn probes(&mut self, requester: usize) -> Visit {
        let ms = &mut *self.ms;
        match &ms.holders {
            Some(holders) if !ms.cfg.jetty_filter => {
                let visible = match self.clusters {
                    None => low_nodes(ms.nodes.len()),
                    // Clusters are equal runs of consecutive nodes.
                    Some((mine, visit)) => {
                        let per = ms.nodes.len() / ms.topo.clusters();
                        Visit::Mask(visit | 1 << mine)
                            .fold(0, |m, c| m | low_nodes(per) << (c * per))
                    }
                } & !(1 << requester);
                ms.metrics.snooped_tag_lookups += u64::from(visible.count_ones());
                Visit::Mask(holders.mask(self.region) & visible)
            }
            _ => Visit::All(0..ms.nodes.len()),
        }
    }

    fn snoop_state(&mut self, node: usize, line: LineAddr) -> Option<MoesiState> {
        if self.skipped(node) {
            return None;
        }
        let ms = &mut *self.ms;
        // Jetty (if fitted) may prove the line absent and skip the tag
        // lookup; a correct filter never skips a line that is cached.
        if let Some(jetty) = &mut ms.nodes[node].jetty {
            if !jetty.maybe_present(line) {
                ms.metrics.jetty_filtered_lookups += 1;
                debug_assert!(
                    !ms.nodes[node].l2.contains(line.0),
                    "jetty false negative at node {node}"
                );
                return None;
            }
        }
        // Without the mask `probes` counted no lookup up front.
        if ms.holders.is_none() || ms.cfg.jetty_filter {
            ms.metrics.snooped_tag_lookups += 1;
        }
        Some(ms.l2_state(CoreId(node), line))
    }

    fn snooped(&mut self, node: usize, line: LineAddr, next: MoesiState, _req: ReqKind) {
        self.ms
            .apply_snooped_transition(node, line, next, self.region);
    }

    fn fill(&mut self, node: usize, line: LineAddr, state: MoesiState) {
        self.ms.fill_l2(CoreId(node), line, state, self.now);
    }

    fn permission(&mut self, node: usize, req: ReqKind) -> RegionPermission {
        let permission = self.ms.nodes[node].tracker.permission(self.region, req);
        if req == ReqKind::Writeback && !self.ms.cfg.direct_writebacks {
            RegionPermission::Broadcast
        } else {
            permission
        }
    }

    fn local_fill(&mut self, node: usize, fill: FillKind, resp: Option<MergedRegionResp>) {
        let (region, mc, now) = (self.region, self.mc, self.now);
        self.ms
            .rca_local_complete(CoreId(node), region, fill, resp, mc, now);
    }

    /// Only the region's RCA holders where the mask is kept: a node with
    /// no entry answers nothing and changes nothing.
    fn region_peers(&mut self, requester: usize) -> Visit {
        match &self.ms.holders {
            Some(holders) => Visit::Mask(holders.mask(self.region) & !(1 << requester)),
            None => Visit::All(0..self.ms.nodes.len()),
        }
    }

    fn external(&mut self, node: usize, req: ReqKind, fill_exclusive: bool) -> MergedRegionResp {
        let (region, when) = (self.region, self.resolved);
        self.ms
            .tracker_external(node, region, req, fill_exclusive, when)
    }

    fn home_handle(&mut self, node: usize, line: LineAddr, req: ReqKind) -> (DirAction, bool) {
        self.ms.directories[self.mc.0].handle(line, node as u8, req.into())
    }

    /// DirectoryCgct keeps every cached region mask exact; no-op in the
    /// other modes.
    fn refresh_home(&mut self) {
        let ms = &mut *self.ms;
        if ms.region_dir_caches.is_empty() {
            return;
        }
        let mask = ms.directories[self.mc.0].region_mask(ms.geom.lines_in_region(self.region));
        ms.region_dir_caches[self.mc.0].update(self.region, mask);
    }

    fn home_mask(&mut self) -> Option<u64> {
        self.ms.region_dir_caches[self.mc.0].lookup(self.region)
    }

    fn line_snoop_done(&mut self, out: &Outcome) {
        let owner = out.supplier.is_some();
        self.ms
            .trace_ev(self.tid, self.resolved, EventKind::SnoopDone { owner });
    }

    fn home_done(&mut self, action: &DirAction, bypassed: bool) {
        if bypassed {
            self.ms
                .assert_bypass_clean(self.core, self.req, self.line, action);
        }
        if self.arm == Arm::Local {
            return;
        }
        let ms = &mut *self.ms;
        let req_hop = ms.cfg.latency.direct_request(self.dist);
        ms.trace_ev(self.tid, self.now + req_hop, EventKind::HopDone);
        let at = (self.now + req_hop).align_to_system_clock();
        self.bypassed = bypassed;
        self.resolved = if bypassed {
            // Region knowledge proved nobody else holds the region: the
            // per-line directory lookup never happens on the wire.
            ms.metrics.dir_bypasses += 1;
            at
        } else {
            ms.metrics.dir_lookups += 1;
            let start =
                ms.mcs[self.mc.0].start_access_event(at, &mut ms.events, trace_arg!(ms, self.tid));
            let done = start + ms.cfg.latency.dram.as_cpu_cycles();
            ms.trace_ev(self.tid, done, EventKind::DramDone);
            done
        };
    }

    fn before_fill(&mut self, out: &Outcome) {
        match self.arm {
            Arm::Direct => {
                let ms = &mut *self.ms;
                let arrive = self.now + ms.cfg.latency.direct_request(self.dist);
                ms.trace_ev(self.tid, arrive, EventKind::HopDone);
                let dram_start = ms.mcs[self.mc.0].start_access_event(
                    arrive.align_to_system_clock(),
                    &mut ms.events,
                    trace_arg!(ms, self.tid),
                );
                let dram_done = dram_start + ms.cfg.latency.dram.as_cpu_cycles();
                ms.trace_ev(self.tid, dram_done, EventKind::DramDone);
                self.done = dram_done + ms.cfg.latency.transfer_cpu(self.dist);
            }
            Arm::Broadcast => self.broadcast_data(out),
            Arm::Home(_) => self.home_data(out),
            Arm::Local => {}
        }
    }
}

/// One fact about a region of the live machine.
#[derive(Clone, Copy)]
enum Fact {
    Entry(RegionEntry),
    DirCache(u64),
    /// An L2 line (an L2 keeps only valid lines).
    Copy(LineCopy),
}

/// One region of the live machine, as the shared invariants read it:
/// its run of the machine-wide fact list, sorted by
/// [`MemorySystem::check_invariants`].
struct LiveRegion<'a> {
    mem: &'a MemorySystem,
    region: RegionAddr,
    facts: &'a [(RegionAddr, Fact)],
}

impl RegionView for LiveRegion<'_> {
    fn copies(&self) -> impl Iterator<Item = LineCopy> + '_ {
        self.facts.iter().filter_map(|&(_, f)| match f {
            Fact::Copy(c) => Some(c),
            _ => None,
        })
    }

    fn entries(&self) -> impl Iterator<Item = RegionEntry> + '_ {
        self.facts.iter().map_while(|&(_, f)| match f {
            Fact::Entry(e) => Some(e),
            _ => None,
        })
    }

    fn tracks_regions(&self) -> bool {
        // Every node of a machine carries the same kind of tracker.
        let first = self.mem.nodes.first();
        first.is_some_and(|n| n.tracker.rca().is_some())
    }

    fn home(&self, line: LineAddr) -> Option<DirEntry> {
        let mem = self.mem;
        if !mem.cfg.mode.uses_directory() {
            return None;
        }
        let mc = mem.topo.mc_of_line(line, mem.geom);
        mem.directories.get(mc.0).map(|dir| dir.entry(line))
    }

    fn dir_cache_mask(&self) -> Option<u64> {
        self.facts.iter().find_map(|&(_, f)| match f {
            Fact::DirCache(mask) => Some(mask),
            _ => None,
        })
    }

    fn home_entries(&self) -> impl Iterator<Item = DirEntry> + '_ {
        let mem = self.mem;
        let dir = mem.directories.get(mem.topo.mc_of_region(self.region).0);
        mem.geom
            .lines_in_region(self.region)
            .filter_map(move |line| dir.map(|dir| dir.entry(line)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgct::RegionState;

    fn cgct_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Cgct {
            region_bytes: 512,
            sets: 8192,
        });
        cfg.perturbation = 0;
        cfg.stream_prefetch = false;
        cfg
    }

    fn baseline_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Baseline);
        cfg.perturbation = 0;
        cfg.stream_prefetch = false;
        cfg
    }

    const C0: CoreId = CoreId(0);
    const C1: CoreId = CoreId(2); // different chip

    #[test]
    fn first_touch_broadcasts_then_goes_direct() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x10000);
        let t1 = m.load(C0, Cycle(0), a, false);
        assert_eq!(m.metrics.broadcasts, 1);
        // Second line in the same region: direct.
        let t2 = m.load(C0, t1, a.offset(64), false);
        assert_eq!(m.metrics.broadcasts, 1);
        assert_eq!(m.metrics.direct.data, 1);
        assert!(t2 > t1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn holder_mask_follows_rca_allocation_and_self_invalidation() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x4000);
        let region = m.geometry().region_of_line(m.geometry().line_of(a));
        let mask = |m: &MemorySystem| m.holders.as_ref().unwrap().mask(region);
        m.load(C0, Cycle(0), a, false);
        m.load(C1, Cycle(1000), a, false);
        assert_eq!(mask(&m), 1 << C0.0 | 1 << C1.0);
        // C0's store invalidates C1's only line of the region, so C1's
        // now-empty entry self-invalidates and leaves the mask.
        m.store(C0, Cycle(2000), a);
        assert!(m.rca(C1).unwrap().entry(region).is_none());
        assert_eq!(mask(&m), 1 << C0.0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn invariant_walk_catches_a_drifted_holder_mask() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x4000);
        let region = m.geometry().region_of_line(m.geometry().line_of(a));
        m.load(C0, Cycle(0), a, false);
        m.check_invariants().unwrap();
        let drift = |m: &mut MemorySystem, edit: &dyn Fn(&mut RegionHolders)| {
            let saved = m.holders.as_ref().unwrap().map.clone();
            edit(m.holders.as_mut().unwrap());
            let err = m.check_invariants().unwrap_err();
            m.holders.as_mut().unwrap().map = saved;
            err
        };
        let err = drift(&mut m, &|h| h.add(region, 1));
        assert!(err.contains("is 0b11 but the RCAs hold 0b1"), "{err}");
        let err = drift(&mut m, &|h| h.remove(region, C0.0));
        assert!(err.contains("is 0b0 but the RCAs hold 0b1"), "{err}");
        let err = drift(&mut m, &|h| {
            h.map.insert(region.0 + 1, 0);
        });
        assert!(
            err.contains("lists 2 region(s) but the RCAs hold 1"),
            "{err}"
        );
        m.check_invariants().unwrap();
    }

    /// Each corruption of live state is caught by the shared invariant
    /// it breaks, under that invariant's label.
    #[test]
    fn invariant_walk_labels_each_corruption() {
        // Both cores share line `a` (C0 owns it, O); C0 alone holds `b`
        // of the same region, M.
        let (a, b) = (Addr(0x4000), Addr(0x4040));
        let (line, private) = (LineAddr(a.0 / 64), LineAddr(b.0 / 64));
        let corrupted = |cfg: SystemConfig, edit: &dyn Fn(&mut MemorySystem)| {
            let mut m = MemorySystem::new(cfg, 1);
            m.load(C0, Cycle(0), a, false);
            m.load(C1, Cycle(1000), a, false);
            m.store(C0, Cycle(2000), a);
            m.load(C1, Cycle(3000), a, false);
            m.store(C0, Cycle(4000), b);
            assert_eq!(m.l2_state(C0, private), MoesiState::Modified);
            m.check_invariants().unwrap();
            edit(&mut m);
            m.check_invariants().unwrap_err()
        };
        let label = |err: String, want: &str| assert!(err.starts_with(want), "{err}");
        // A second M holder of a shared line.
        let err = corrupted(cgct_cfg(), &|m| {
            for core in [C0, C1] {
                *m.nodes[core.0].l2.get_mut(line.0).unwrap() = MoesiState::Modified;
            }
        });
        label(err, "I1:");
        // An RCA line count that no longer matches the L2.
        let err = corrupted(cgct_cfg(), &|m| {
            let region = m.geom.region_of_line(line);
            if let Tracker::Rca(rca) = &mut m.nodes[C1.0].tracker {
                rca.line_cached(region);
            }
        });
        label(err, "I3:");
        // An M holder the home lists only as a sharer.
        let err = corrupted(dir_cgct_cfg(), &|m| {
            let mc = m.topo.mc_of_line(private, m.geom);
            let entry = DirEntry {
                owner: None,
                sharers: 1 << C0.0,
            };
            m.directories[mc.0].install_entry(private, entry);
        });
        assert!(
            err.starts_with("I6:") && err.contains("records owner"),
            "{err}"
        );
        // A region-directory-cache mask the line entries no longer back.
        let err = corrupted(dir_cgct_cfg(), &|m| {
            let region = m.geom.region_of_line(line);
            let mc = m.topo.mc_of_region(region);
            m.region_dir_caches[mc.0].update(region, 1 << 3);
        });
        assert!(err.starts_with("I6:") && err.contains("mask"), "{err}");
    }

    #[test]
    fn holder_mask_is_kept_only_for_rca_trackers_of_at_most_64_nodes() {
        let (region_bytes, sets) = (512, 8192);
        for (mode, kept) in [
            (CoherenceMode::Baseline, false),
            (CoherenceMode::Directory, false),
            (CoherenceMode::Scaled { region_bytes, sets }, false),
            (CoherenceMode::RegionScout { region_bytes }, false),
            (CoherenceMode::Cgct { region_bytes, sets }, true),
            (CoherenceMode::DirectoryCgct { region_bytes, sets }, true),
            (CoherenceMode::Hierarchical { region_bytes, sets }, true),
        ] {
            let m = MemorySystem::new(SystemConfig::paper_default(mode), 1);
            assert_eq!(m.holders.is_some(), kept, "{}", mode.label());
        }
        // A flat CGCT bus past 64 nodes has no mask bit for every node.
        let mut cfg = cgct_cfg();
        cfg.topology = Topology::for_cores(128);
        assert!(MemorySystem::new(cfg, 1).holders.is_none());
    }

    #[test]
    fn baseline_always_broadcasts() {
        let mut m = MemorySystem::new(baseline_cfg(), 1);
        let a = Addr(0x10000);
        let t1 = m.load(C0, Cycle(0), a, false);
        let _ = m.load(C0, t1, a.offset(64), false);
        assert_eq!(m.metrics.broadcasts, 2);
        assert_eq!(m.metrics.direct.total(), 0);
    }

    #[test]
    fn load_fills_exclusive_when_unshared() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x2000);
        m.load(C0, Cycle(0), a, false);
        let line = m.geometry().line_of(a);
        assert_eq!(m.l2_state(C0, line), MoesiState::Exclusive);
        let region = m.geometry().region_of_line(line);
        assert_eq!(m.rca(C0).unwrap().state(region), RegionState::DirtyInvalid);
    }

    #[test]
    fn sharing_downgrades_region_and_lines() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x4000);
        let line = m.geometry().line_of(a);
        let region = m.geometry().region_of_line(line);
        m.load(C0, Cycle(0), a, false);
        // C1 reads the same line: broadcast (its region is invalid),
        // C0's E copy downgrades, both see sharing.
        m.load(C1, Cycle(1000), a, false);
        assert_eq!(m.l2_state(C0, line), MoesiState::Shared);
        assert_eq!(m.l2_state(C1, line), MoesiState::Shared);
        assert!(!m.rca(C0).unwrap().state(region).is_exclusive());
        assert!(!m.rca(C1).unwrap().state(region).is_exclusive());
        m.check_invariants().unwrap();
    }

    #[test]
    fn store_to_shared_line_upgrades_and_invalidates() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x4000);
        let line = m.geometry().line_of(a);
        m.load(C0, Cycle(0), a, false);
        m.load(C1, Cycle(1000), a, false);
        m.store(C0, Cycle(2000), a);
        assert_eq!(m.l2_state(C0, line), MoesiState::Modified);
        assert_eq!(m.l2_state(C1, line), MoesiState::Invalid);
        m.check_invariants().unwrap();
    }

    #[test]
    fn upgrade_in_exclusive_region_completes_locally() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x8000);
        // Ifetch-style shared fill would give CI; use a plain load (E fill,
        // DI region), then store to another line of the region.
        m.load(C0, Cycle(0), a, false);
        let broadcasts_before = m.metrics.broadcasts;
        m.store(C0, Cycle(500), a.offset(64));
        // The store's RFO went direct (region DI), not broadcast.
        assert_eq!(m.metrics.broadcasts, broadcasts_before);
        // A store to the SAME line (now M) is silent; a store to a shared
        // copy in an exclusive region completes locally.
        m.check_invariants().unwrap();
    }

    #[test]
    fn dcbz_in_exclusive_region_is_local() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0xA000);
        m.load(C0, Cycle(0), a, false); // claims region DI
        let before = m.metrics.broadcasts;
        let done = m.dcbz(C0, Cycle(500), a.offset(64));
        assert_eq!(m.metrics.broadcasts, before);
        assert_eq!(m.metrics.local.dcb, 1);
        // Local completion: just the L2 access latency.
        assert!(done - Cycle(500) <= 13, "dcbz took {}", done - Cycle(500));
        let line = m.geometry().line_of(a.offset(64));
        assert_eq!(m.l2_state(C0, line), MoesiState::Modified);
        m.check_invariants().unwrap();
    }

    #[test]
    fn cache_to_cache_transfer_from_modified_owner() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0xC000);
        m.store(C0, Cycle(0), a);
        let before_c2c = m.metrics.cache_to_cache;
        m.load(C1, Cycle(1000), a, false);
        assert_eq!(m.metrics.cache_to_cache, before_c2c + 1);
        let line = m.geometry().line_of(a);
        assert_eq!(m.l2_state(C0, line), MoesiState::Owned);
        assert_eq!(m.l2_state(C1, line), MoesiState::Shared);
        m.check_invariants().unwrap();
    }

    #[test]
    fn oracle_counts_unshared_reads_as_unnecessary() {
        let mut m = MemorySystem::new(baseline_cfg(), 1);
        m.load(C0, Cycle(0), Addr(0x123400), false);
        assert_eq!(m.metrics.unnecessary.data, 1);
        // A genuinely shared access is necessary.
        m.store(C1, Cycle(1000), Addr(0x123400));
        assert_eq!(m.metrics.unnecessary.data, 1);
    }

    #[test]
    fn direct_latency_beats_snoop_latency() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x40000);
        let t0 = Cycle(0);
        let first = m.load(C0, t0, a, false); // broadcast
        let t1 = Cycle(10_000);
        let second = m.load(C0, t1, a.offset(128), false); // direct
        let lat_first = first - t0;
        let lat_second = second - t1;
        assert!(
            lat_second < lat_first,
            "direct {lat_second} should beat snoop {lat_first}"
        );
    }

    #[test]
    fn ifetch_uses_shared_reads_and_l1i() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x1_0000);
        let t1 = m.ifetch(C0, Cycle(0), a);
        assert!(t1 > Cycle(1));
        assert_eq!(m.metrics.requests.ifetch, 1);
        // Same line now hits L1I.
        let t2 = m.ifetch(C0, Cycle(5000), a.offset(4));
        assert_eq!(t2, Cycle(5001));
        // Region is clean-exclusive: another ifetch in the region avoids
        // the broadcast.
        let before = m.metrics.broadcasts;
        m.ifetch(C0, Cycle(6000), a.offset(64));
        assert_eq!(m.metrics.broadcasts, before);
        let region = m.geometry().region_of(a);
        assert_eq!(m.rca(C0).unwrap().state(region), RegionState::CleanInvalid);
        m.check_invariants().unwrap();
    }

    #[test]
    fn ifetch_shared_across_cores_stays_externally_clean() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x2_0000);
        m.ifetch(C0, Cycle(0), a);
        m.ifetch(C1, Cycle(1000), a);
        let region = m.geometry().region_of(a);
        assert_eq!(m.rca(C1).unwrap().state(region), RegionState::CleanClean);
        // C1 can now ifetch other lines of the region without broadcast.
        let before = m.metrics.broadcasts;
        m.ifetch(C1, Cycle(2000), a.offset(128));
        assert_eq!(m.metrics.broadcasts, before);
        m.check_invariants().unwrap();
    }

    #[test]
    fn writebacks_route_direct_with_region_entry() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        // Dirty a line, then force it out by filling its L2 set with
        // conflicting lines.
        let a = Addr(0x100000);
        m.store(C0, Cycle(0), a);
        let l2_sets = m.config().hierarchy.l2.sets() as u64;
        let line_bytes = 64u64;
        let stride = l2_sets * line_bytes;
        let before_wb = m.metrics.requests.writeback;
        // Two conflicting fills (2-way set) evict the dirty line.
        m.load(C0, Cycle(1000), Addr(a.0 + stride), false);
        m.load(C0, Cycle(2000), Addr(a.0 + 2 * stride), false);
        assert!(m.metrics.requests.writeback > before_wb);
        assert!(m.metrics.direct.writeback > 0, "writeback went direct");
        m.check_invariants().unwrap();
    }

    #[test]
    fn self_invalidation_recovers_migratory_regions() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let a = Addr(0x200000);
        // C0 claims the region and dirties a line.
        m.store(C0, Cycle(0), a);
        // Evict C0's line via conflicts (region entry stays, count 0).
        let stride = m.config().hierarchy.l2.sets() as u64 * 64;
        m.load(C0, Cycle(1000), Addr(a.0 + stride), false);
        m.load(C0, Cycle(2000), Addr(a.0 + 2 * stride), false);
        // C1 now requests the line: C0's empty region self-invalidates
        // and C1 obtains the region exclusively.
        m.store(C1, Cycle(3000), a);
        let region = m.geometry().region_of(a);
        assert_eq!(m.rca(C0).unwrap().state(region), RegionState::Invalid);
        assert!(m.rca(C1).unwrap().state(region).is_exclusive());
        assert!(m.rca(C0).unwrap().stats().self_invalidations.value() > 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn scaled_mode_tracks_exclusivity_only() {
        let mut m = MemorySystem::new(scaled_cfg(), 1);
        let a = Addr(0x3000);
        m.load(C0, Cycle(0), a, false);
        let before = m.metrics.broadcasts;
        m.load(C0, Cycle(1000), a.offset(64), false);
        assert_eq!(m.metrics.broadcasts, before, "exclusive region goes direct");
        m.check_invariants().unwrap();
    }

    #[test]
    fn regionscout_mode_learns_not_shared() {
        let mut m = MemorySystem::new(scout_cfg(), 1);
        let a = Addr(0x3000);
        m.load(C0, Cycle(0), a, false); // broadcast, learns not-shared
        let before = m.metrics.broadcasts;
        m.load(C0, Cycle(1000), a.offset(64), false);
        assert_eq!(m.metrics.broadcasts, before);
        m.check_invariants().unwrap();
    }

    #[test]
    fn region_prefetch_filter_drops_externally_dirty_targets() {
        let mut cfg = cgct_cfg();
        cfg.stream_prefetch = true;
        cfg.region_prefetch_filter = true;
        let mut m = MemorySystem::new(cfg, 1);
        // C1 dirties lines of region B; C0 then streams toward it so the
        // prefetcher wants lines whose region C0 knows is externally
        // dirty.
        let region_b = Addr(0x8000); // region 64 (512B regions)
        m.store(C1, Cycle(0), region_b);
        // C0 touches a line in region B (learns it is externally dirty)...
        m.load(C0, Cycle(1000), region_b.offset(64), false);
        // ...then streams sequentially into it to trigger prefetches.
        m.load(C0, Cycle(2000), Addr(0x7F00), false);
        m.load(C0, Cycle(3000), Addr(0x7F40), false);
        m.load(C0, Cycle(4000), Addr(0x7F80), false);
        assert!(
            m.metrics.prefetches_filtered > 0,
            "filter never fired (prefetches={} filtered={})",
            m.metrics.prefetches,
            m.metrics.prefetches_filtered
        );
        m.check_invariants().unwrap();
    }

    #[test]
    fn dram_speculation_filter_saves_wasted_accesses() {
        let mut cfg = cgct_cfg();
        cfg.dram_speculation_filter = true;
        let mut m = MemorySystem::new(cfg, 1);
        let a = Addr(0xE000);
        // C1 owns the line dirty; C0 reads it twice (second read after C1
        // re-dirties) so C0's second request sees an externally-dirty
        // region and predicts the cache-to-cache supply.
        m.store(C1, Cycle(0), a);
        m.load(C0, Cycle(1000), a, false); // region learned CD/DD
        m.store(C1, Cycle(2000), a.offset(64));
        let saved_before = m.metrics.dram_speculation_saved;
        m.load(C0, Cycle(3000), a.offset(64), false);
        assert!(
            m.metrics.dram_speculation_saved > saved_before,
            "prediction never saved a DRAM access"
        );
        m.check_invariants().unwrap();
    }

    #[test]
    fn baseline_counts_wasted_speculative_dram() {
        let mut m = MemorySystem::new(baseline_cfg(), 1);
        let a = Addr(0xF000);
        m.store(C1, Cycle(0), a);
        m.load(C0, Cycle(1000), a, false); // cache-to-cache: DRAM wasted
        assert!(m.metrics.dram_speculation_wasted > 0);
        assert_eq!(m.metrics.dram_speculation_saved, 0);
    }

    #[test]
    fn shared_read_bypass_trades_broadcasts_for_upgrades() {
        let mut cfg = cgct_cfg();
        cfg.shared_read_bypass = true;
        let mut m = MemorySystem::new(cfg, 1);
        let a = Addr(0x7_0000);
        // Both cores read a line: the region becomes externally clean for
        // C0 (CC after C1's read downgrades it).
        m.load(C0, Cycle(0), a, false);
        m.load(C1, Cycle(1000), a, false);
        // C0 loads ANOTHER line of the region: region CC/DC -> fetch a
        // shared copy direct from memory, no broadcast.
        let broadcasts = m.metrics.broadcasts;
        m.load(C0, Cycle(2000), a.offset(64), false);
        assert_eq!(m.metrics.broadcasts, broadcasts, "bypassed the broadcast");
        let line = m.geometry().line_of(a.offset(64));
        assert_eq!(m.l2_state(C0, line), MoesiState::Shared);
        // The cost: storing to it now needs an upgrade broadcast.
        m.store(C0, Cycle(3000), a.offset(64));
        assert!(m.metrics.broadcasts > broadcasts);
        assert_eq!(m.l2_state(C0, line), MoesiState::Modified);
        m.check_invariants().unwrap();
    }

    #[test]
    fn owner_prediction_short_circuits_dirty_reads() {
        let mut cfg = cgct_cfg();
        cfg.owner_prediction = true;
        let mut m = MemorySystem::new(cfg, 1);
        let a = Addr(0x5_0000);
        // C1 dirties two lines of the region; C0 reads one (broadcast,
        // learns owner), then reads the other: predicted point-to-point.
        m.store(C1, Cycle(0), a);
        m.store(C1, Cycle(500), a.offset(64));
        m.load(C0, Cycle(1000), a, false);
        let broadcasts = m.metrics.broadcasts;
        let t0 = Cycle(2000);
        let done = m.load(C0, t0, a.offset(64), false);
        assert_eq!(m.metrics.owner_prediction_hits, 1);
        assert_eq!(m.metrics.broadcasts, broadcasts, "no broadcast needed");
        // Two-hop latency beats the snoop path (which is >= 180 cycles).
        assert!(done - t0 < 180, "owner-predicted read took {}", done - t0);
        let line = m.geometry().line_of(a.offset(64));
        assert_eq!(m.l2_state(C0, line), MoesiState::Shared);
        assert_eq!(m.l2_state(C1, line), MoesiState::Owned);
        m.check_invariants().unwrap();
    }

    #[test]
    fn owner_prediction_miss_falls_back_to_broadcast() {
        let mut cfg = cgct_cfg();
        cfg.owner_prediction = true;
        let mut m = MemorySystem::new(cfg, 1);
        let a = Addr(0x6_0000);
        m.store(C1, Cycle(0), a);
        m.load(C0, Cycle(1000), a, false); // learns owner = C1
                                           // C1's copy is evicted via conflicts; the hint goes stale.
        let stride = m.config().hierarchy.l2.sets() as u64 * 64;
        m.load(C1, Cycle(2000), Addr(a.0 + stride), false);
        m.load(C1, Cycle(3000), Addr(a.0 + 2 * stride), false);
        // C0 reads another line of the region: probe misses, broadcast.
        let before = m.metrics.broadcasts;
        m.load(C0, Cycle(4000), a.offset(128), false);
        assert!(m.metrics.owner_prediction_misses >= 1);
        assert!(m.metrics.broadcasts > before, "fell back to broadcast");
        m.check_invariants().unwrap();
    }

    fn directory_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Directory);
        cfg.perturbation = 0;
        cfg.stream_prefetch = false;
        cfg
    }

    #[test]
    fn directory_mode_never_broadcasts() {
        let mut m = MemorySystem::new(directory_cfg(), 1);
        let a = Addr(0x3000);
        m.load(C0, Cycle(0), a, false);
        m.store(C1, Cycle(1000), a);
        m.load(C0, Cycle(2000), a, false);
        assert_eq!(m.metrics.broadcasts, 0);
        assert_eq!(m.metrics.direct.total(), m.metrics.requests.total());
        m.check_invariants().unwrap();
    }

    #[test]
    fn directory_unshared_read_is_two_hop_and_exclusive() {
        let mut m = MemorySystem::new(directory_cfg(), 1);
        let a = Addr(0x3000);
        let t0 = Cycle(0);
        let done = m.load(C0, t0, a, false);
        let line = m.geometry().line_of(a);
        assert_eq!(m.l2_state(C0, line), MoesiState::Exclusive);
        // Two hops + two serialized DRAM accesses (the directory lookup,
        // then the data): ~360 — the price of keeping full-map state in
        // memory, and exactly what the DirectoryCgct bypass removes.
        assert!(
            (300..440).contains(&(done - t0)),
            "directory 2-hop took {}",
            done - t0
        );
        assert_eq!(m.metrics.dir_lookups, 1);
        assert_eq!(m.metrics.dir_bypasses, 0);
    }

    #[test]
    fn directory_dirty_read_pays_three_hops() {
        let mut m = MemorySystem::new(directory_cfg(), 1);
        let a = Addr(0x3000);
        m.store(C0, Cycle(0), a);
        let t0 = Cycle(10_000);
        let done = m.load(C1, t0, a, false);
        let line = m.geometry().line_of(a);
        assert_eq!(m.l2_state(C0, line), MoesiState::Owned);
        assert_eq!(m.l2_state(C1, line), MoesiState::Shared);
        assert_eq!(m.metrics.cache_to_cache, 1);
        let mc = m.config().topology.mc_of_region(m.geometry().region_of(a));
        assert_eq!(m.directory(mc.0).three_hop_transfers, 1);
        // Three hops beat nothing: this is the directory's weak spot the
        // paper highlights — slower than a snooping c2c (~180-190).
        assert!(done - t0 > 60, "three-hop too fast: {}", done - t0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn directory_rfo_invalidates_all_sharers() {
        let mut m = MemorySystem::new(directory_cfg(), 1);
        let a = Addr(0x3000);
        let line = m.geometry().line_of(a);
        m.load(C0, Cycle(0), a, false);
        m.load(C1, Cycle(1000), a, false);
        m.store(CoreId(1), Cycle(2000), a);
        assert_eq!(m.l2_state(CoreId(1), line), MoesiState::Modified);
        assert_eq!(m.l2_state(C0, line), MoesiState::Invalid);
        assert_eq!(m.l2_state(C1, line), MoesiState::Invalid);
        m.check_invariants().unwrap();
    }

    #[test]
    fn directory_invariants_under_random_traffic() {
        let mut m = MemorySystem::new(directory_cfg(), 1);
        random_traffic(&mut m, 7);
        assert_eq!(m.metrics.broadcasts, 0);
    }

    /// Drives 4,000 random loads, stores, ifetches and `dcbz`s from every
    /// core over 1,024 lines, checking the invariants every 500 requests
    /// and at the end.
    fn random_traffic(m: &mut MemorySystem, seed: u64) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut now = Cycle(0);
        for i in 0..4000 {
            let core = CoreId(rng.gen_range(0..m.nodes.len()));
            let addr = Addr((rng.gen_range(0..1024u64)) * 64);
            match rng.gen_range(0..4) {
                0 => {
                    m.load(core, now, addr, false);
                }
                1 => {
                    m.store(core, now, addr);
                }
                2 => {
                    m.ifetch(core, now, addr);
                }
                _ => {
                    m.dcbz(core, now, addr);
                }
            }
            now += 10;
            if i % 500 == 0 {
                m.check_invariants().unwrap();
            }
        }
        m.check_invariants().unwrap();
    }

    fn dir_cgct_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::DirectoryCgct {
            region_bytes: 512,
            sets: 8192,
        });
        cfg.perturbation = 0;
        cfg.stream_prefetch = false;
        cfg
    }

    fn hier_cfg(cores: usize) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Hierarchical {
            region_bytes: 512,
            sets: 8192,
        });
        cfg.topology = Topology::for_cores(cores);
        cfg.perturbation = 0;
        cfg.stream_prefetch = false;
        cfg
    }

    #[test]
    #[should_panic(expected = "at most 64 nodes")]
    fn directory_mode_rejects_more_than_64_nodes() {
        let mut cfg = directory_cfg();
        cfg.topology = Topology {
            cores_per_chip: 2,
            chips_per_switch: 2,
            switches_per_board: 2,
            boards: 9, // 72 cores: DirEntry::sharers is a u64 bit-vector
        };
        let _ = MemorySystem::new(cfg, 1);
    }

    #[test]
    fn dir_cgct_first_touch_looks_up_then_bypasses() {
        let mut m = MemorySystem::new(dir_cgct_cfg(), 1);
        let a = Addr(0x10000);
        // Cold region: no RCA claim, cold region-directory cache — the
        // home's per-line lookup DRAM access is paid.
        let t1 = m.load(C0, Cycle(0), a, false);
        assert_eq!(m.metrics.dir_lookups, 1);
        assert_eq!(m.metrics.dir_bypasses, 0);
        let first = t1 - Cycle(0);
        // Second line of the now-exclusive region: the RCA claim skips
        // the lookup; only the request hop + data DRAM remain.
        let t0 = Cycle(10_000);
        let t2 = m.load(C0, t0, a.offset(64), false);
        assert_eq!(m.metrics.dir_lookups, 1);
        assert_eq!(m.metrics.dir_bypasses, 1);
        let bypassed = t2 - t0;
        assert!(
            bypassed < first,
            "bypassed fill ({bypassed}) should beat the full lookup ({first})"
        );
        assert_eq!(m.metrics.broadcasts, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn dir_cgct_region_cache_short_circuits_home_lookup() {
        // A tiny RCA (1 set x 2 ways) forces the requester to forget its
        // region claims while the home's region-grain directory cache
        // still knows nobody else holds the region.
        let mut cfg = dir_cgct_cfg();
        cfg.mode = CoherenceMode::DirectoryCgct {
            region_bytes: 512,
            sets: 1,
        };
        let mut m = MemorySystem::new(cfg, 1);
        let region_stride = 512u64;
        let a = Addr(0x10000);
        m.load(C0, Cycle(0), a, false);
        // Two more regions evict region(a) from the 2-way RCA. Both are
        // odd-numbered regions homed at mc1, so mc0's single-slot region
        // cache (sets is shared with the RCA config) keeps region(a).
        m.load(C0, Cycle(10_000), a.offset(region_stride), false);
        m.load(C0, Cycle(20_000), a.offset(3 * region_stride), false);
        let lookups = m.metrics.dir_lookups;
        // Re-touch region(a): no RCA claim, but the home's cache proves
        // only C0 ever held it — lookup skipped at the home point.
        m.load(C0, Cycle(30_000), a.offset(64), false);
        assert_eq!(m.metrics.dir_lookups, lookups);
        assert!(m.metrics.dir_bypasses >= 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn dir_cgct_sharing_still_invalidates_through_home() {
        let mut m = MemorySystem::new(dir_cgct_cfg(), 1);
        let a = Addr(0x4000);
        let line = m.geometry().line_of(a);
        m.load(C0, Cycle(0), a, false);
        m.load(C1, Cycle(1000), a, false);
        assert_eq!(m.l2_state(C0, line), MoesiState::Shared);
        assert_eq!(m.l2_state(C1, line), MoesiState::Shared);
        m.store(C1, Cycle(2000), a);
        assert_eq!(m.l2_state(C1, line), MoesiState::Modified);
        assert_eq!(m.l2_state(C0, line), MoesiState::Invalid);
        assert_eq!(m.metrics.broadcasts, 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn dir_cgct_tolerates_stale_directory_entries_under_region_claims() {
        // A silent clean eviction leaves the home's full-map entry
        // naming a cache that no longer holds the line. A later region
        // claim must still bypass soundly: the stale owner/sharer bits
        // name nobody holding data, and the sanitizer must not trip on
        // the harmless leftover invalidations the entry produces.
        let mut m = MemorySystem::new(dir_cgct_cfg(), 1);
        let a = Addr(0x8000);
        let line = m.geometry().line_of(a);
        let l2_span = 8192 * 64; // same-set conflicts in the 2-way L2
        m.load(C0, Cycle(0), a, false); // C0 becomes the recorded owner (E)
        m.load(C0, Cycle(1000), Addr(0x8000 + l2_span), false);
        m.load(C0, Cycle(2000), Addr(0x8000 + 2 * l2_span), false);
        assert_eq!(
            m.l2_state(C0, line),
            MoesiState::Invalid,
            "silent clean eviction"
        );
        // C1's read self-invalidates C0's empty region entry; the
        // follow-up store then upgrades under C1's externally-invalid
        // region claim while the directory action still names stale C0.
        m.load(C1, Cycle(10_000), a, false);
        m.store(C1, Cycle(20_000), a);
        assert_eq!(m.l2_state(C1, line), MoesiState::Modified);
        m.check_invariants().unwrap();
    }

    #[test]
    fn dir_cgct_invariants_under_random_traffic() {
        let mut m = MemorySystem::new(dir_cgct_cfg(), 1);
        random_traffic(&mut m, 11);
        assert_eq!(m.metrics.broadcasts, 0);
        assert!(m.metrics.dir_bypasses > 0, "no bypasses ever fired");
    }

    #[test]
    fn hierarchical_filters_unvisited_clusters() {
        // 16 cores = 2 clusters of 8.
        let mut m = MemorySystem::new(hier_cfg(16), 1);
        let a = Addr(0x10000);
        let line = m.geometry().line_of(a);
        // Cold load from cluster 0: the other cluster holds nothing of
        // the region, so its bus is never visited.
        m.load(CoreId(0), Cycle(0), a, false);
        assert_eq!(m.metrics.cluster_local_requests, 1);
        assert_eq!(m.metrics.cross_cluster_requests, 0);
        assert_eq!(m.metrics.cluster_snoops_filtered, 1);
        // Cluster-1 read of the same line must visit cluster 0 (which
        // caches it) and downgrade the copy.
        m.load(CoreId(8), Cycle(10_000), a, false);
        assert_eq!(m.metrics.cross_cluster_requests, 1);
        assert_eq!(m.l2_state(CoreId(0), line), MoesiState::Shared);
        assert_eq!(m.l2_state(CoreId(8), line), MoesiState::Shared);
        m.check_invariants().unwrap();
    }

    #[test]
    fn hierarchical_rca_bypasses_touch_no_bus() {
        let mut m = MemorySystem::new(hier_cfg(16), 1);
        let a = Addr(0x10000);
        let t1 = m.load(CoreId(0), Cycle(0), a, false);
        let broadcasts = m.metrics.broadcasts;
        // Second line of the exclusively-held region: direct to memory.
        let _ = m.load(CoreId(0), t1, a.offset(64), false);
        assert_eq!(m.metrics.broadcasts, broadcasts);
        assert_eq!(m.metrics.direct.data, 1);
        // Upgrade within the region: completes locally.
        let t0 = Cycle(50_000);
        let done = m.store(CoreId(0), t0, a);
        assert_eq!(m.metrics.broadcasts, broadcasts);
        assert!(done - t0 <= m.config().hierarchy.l1d.latency + m.config().hierarchy.l2.latency);
        m.check_invariants().unwrap();
    }

    #[test]
    fn hierarchical_invariants_under_random_traffic() {
        let mut m = MemorySystem::new(hier_cfg(16), 1);
        random_traffic(&mut m, 13);
        assert!(
            m.metrics.cluster_snoops_filtered > 0,
            "the cluster filter never skipped anything"
        );
    }

    fn scaled_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::Scaled {
            region_bytes: 512,
            sets: 8192,
        });
        cfg.perturbation = 0;
        cfg.stream_prefetch = false;
        cfg
    }

    fn scout_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(CoherenceMode::RegionScout { region_bytes: 512 });
        cfg.perturbation = 0;
        cfg.stream_prefetch = false;
        cfg
    }

    /// Only nodes with a region tracker keep the region-line index, after
    /// a run and after a checkpoint restore, and the invariant check
    /// rejects an index on the wrong side of that rule. The run is also
    /// the random-traffic invariant check of the `Scaled` and
    /// `RegionScout` machines.
    #[test]
    fn region_line_index_exists_only_with_a_region_tracker() {
        let modes = [
            (baseline_cfg(), false),
            (directory_cfg(), false),
            (cgct_cfg(), true),
            (dir_cgct_cfg(), true),
            (hier_cfg(16), true),
            (scaled_cfg(), true),
            (scout_cfg(), true),
        ];
        for (cfg, indexed) in modes {
            let label = cfg.mode.label();
            let mut m = MemorySystem::new(cfg.clone(), 1);
            random_traffic(&mut m, 23);
            assert!(
                m.nodes.iter().all(|n| n.lines.is_some() == indexed),
                "{label}: after a run"
            );
            let mut back = MemorySystem::new(cfg, 1);
            back.restore_state(&m.snap_state().unwrap()).unwrap();
            assert!(
                back.nodes.iter().all(|n| n.lines.is_some() == indexed),
                "{label}: after a restore"
            );
            back.nodes[1].lines = (!indexed).then(|| RegionLineIndex::new(back.geom));
            assert!(
                back.check_invariants().is_err(),
                "{label}: misplaced index accepted"
            );
        }
    }

    #[test]
    fn writeback_routing_matters_only_when_bandwidth_constrained() {
        // §5.1: direct write-back routing "will only affect performance
        // if the system is network-bandwidth-constrained (not the case in
        // our simulations)". With a starved data port, the broadcast
        // write-backs' extra bus occupancy delays demand fills.
        let run = |direct_wb: bool, occupancy: u64| {
            let mut cfg = cgct_cfg();
            cfg.direct_writebacks = direct_wb;
            cfg.data_port_occupancy = occupancy;
            let mut m = MemorySystem::new(cfg, 1);
            let stride = 8192u64 * 64;
            let mut now = Cycle(0);
            let mut last = Cycle(0);
            // Dirty lines + conflict evictions generate a write-back per
            // iteration, interleaved with demand fills.
            for i in 0..64u64 {
                let a = Addr(0x40_0000 + i * 64);
                m.store(C0, now, a);
                now += 50;
                last = m.load(C0, now, Addr(a.0 + stride), false);
                now += 50;
                last = last.max(m.load(C0, now, Addr(a.0 + 2 * stride), false));
                now += 50;
            }
            last
        };
        // Plenty of bandwidth: routing hardly matters.
        let fast_direct = run(true, 40);
        let fast_bcast = run(false, 40);
        let slack = (fast_direct.0 as i64 - fast_bcast.0 as i64).abs();
        // Starved port (20x occupancy): write-backs compete with fills,
        // and both configurations slow down; the direct configuration
        // must not be slower.
        let slow_direct = run(true, 800);
        let slow_bcast = run(false, 800);
        assert!(slow_direct <= slow_bcast, "{slow_direct} vs {slow_bcast}");
        assert!(
            slow_bcast.0 > fast_bcast.0,
            "starved port must slow the run: {slow_bcast} vs {fast_bcast}"
        );
        assert!(slack < 2_000, "ample bandwidth: routing neutral ({slack})");
    }

    #[test]
    fn jetty_filters_lookups_without_changing_behavior() {
        let run = |jetty: bool| {
            let mut cfg = baseline_cfg();
            cfg.jetty_filter = jetty;
            let mut m = MemorySystem::new(cfg, 1);
            let mut rng = Xoshiro256pp::seed_from_u64(3);
            let mut now = Cycle(0);
            for _ in 0..3000 {
                let core = CoreId(rng.gen_range(0..4));
                let addr = Addr((rng.gen_range(0..512u64)) * 64);
                if rng.gen_bool(0.5) {
                    m.load(core, now, addr, false);
                } else {
                    m.store(core, now, addr);
                }
                now += 10;
            }
            m.check_invariants().unwrap();
            m
        };
        let plain = run(false);
        let filtered = run(true);
        // Identical protocol behavior...
        assert_eq!(plain.metrics.broadcasts, filtered.metrics.broadcasts);
        assert_eq!(
            plain.metrics.requests.total(),
            filtered.metrics.requests.total()
        );
        // ...but many snoop-induced tag lookups were skipped.
        assert!(filtered.metrics.jetty_filtered_lookups > 0);
        assert_eq!(
            filtered.metrics.snooped_tag_lookups + filtered.metrics.jetty_filtered_lookups,
            plain.metrics.snooped_tag_lookups
        );
    }

    #[test]
    fn invariants_hold_under_random_traffic() {
        let mut m = MemorySystem::new(cgct_cfg(), 1);
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        let mut now = Cycle(0);
        for i in 0..5000 {
            let core = CoreId(rng.gen_range(0..4));
            let addr = Addr((rng.gen_range(0..2048u64)) * 64);
            match rng.gen_range(0..4) {
                0 => {
                    m.load(core, now, addr, false);
                }
                1 => {
                    m.store(core, now, addr);
                }
                2 => {
                    m.ifetch(core, now, addr);
                }
                _ => {
                    m.dcbz(core, now, addr);
                }
            }
            now += 10;
            if i % 500 == 0 {
                m.check_invariants().unwrap();
            }
        }
        m.check_invariants().unwrap();
    }
}
