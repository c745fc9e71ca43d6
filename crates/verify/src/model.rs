//! The abstract machine the checker explores: N nodes sharing one
//! region of L lines.
//!
//! A model state keeps, per node, the MOESI state of every line plus the
//! node's region entry (state and cached-line count). The *transition
//! function* is not re-implemented here: every step drives the real
//! protocol code —
//!
//! * [`cgct_cache::snoop_line`] / [`cgct_cache::requester_next_state`]
//!   for the line grain,
//! * a real [`RegionCoherenceArray`] (its entry rebuilt from the
//!   abstract node state before every step, then stepped through [`RegionCoherenceArray::permission`],
//!   [`RegionCoherenceArray::local_fill`],
//!   [`RegionCoherenceArray::external_request`],
//!   [`RegionCoherenceArray::line_cached`] /
//!   [`RegionCoherenceArray::line_uncached`]) for the region grain —
//!
//! sequenced exactly as `cgct_system::MemorySystem::coherent_request`
//! sequences them (snoop lines, classify, region snoop, requester fill).
//! A bug in the transition functions or in their sequencing therefore
//! shows up here as a reachable invariant violation.
//!
//! The [`Mutation`] hook deliberately mis-wires one step of that
//! sequencing so tests can prove the checker detects broken protocols.

use cgct::{
    ExternalPart, FillKind, LocalPart, RcaConfig, RegionCoherenceArray, RegionPermission,
    RegionSnoopResponse, RegionState,
};
use cgct_cache::{
    requester_next_state, snoop_line, Geometry, LineAddr, LineSnoopResponse, MoesiState,
    RegionAddr, ReqKind,
};
use cgct_system::directory::{DirAction, DirEntry, DirectoryController};
use std::fmt;

/// The single region every model run revolves around.
pub const REGION: RegionAddr = RegionAddr(0);

/// Which coherence machine the model drives (mirrors the
/// `cgct_system::CoherenceMode` families that are amenable to
/// exhaustive checking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// Flat snooping bus with per-node RCAs (`Cgct` mode — the
    /// original acceptance machine).
    #[default]
    Snoop,
    /// Full-map home directory with per-node RCAs and a region-grain
    /// directory cache at the home (`DirectoryCgct` mode). The global
    /// state grows a [`HomeState`].
    DirectoryCgct,
    /// Cluster-snooping machine with an inter-cluster region directory
    /// (`Hierarchical` mode). The cluster line counts are derived
    /// exactly from the line states (as the live system maintains them),
    /// so the state encoding is unchanged from [`Protocol::Snoop`] —
    /// and a clean exploration proves the cluster filter never changes
    /// the reachable space.
    Hierarchical,
}

impl Protocol {
    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Protocol> {
        Some(match name {
            "snoop" => Protocol::Snoop,
            "dir-cgct" => Protocol::DirectoryCgct,
            "hierarchical" => Protocol::Hierarchical,
            _ => return None,
        })
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Snoop => "snoop",
            Protocol::DirectoryCgct => "dir-cgct",
            Protocol::Hierarchical => "hierarchical",
        }
    }
}

/// Checker configuration: the explored machine shape plus the optional
/// fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Number of processor nodes (2–4).
    pub nodes: usize,
    /// Lines per region (power of two, 1–8).
    pub lines: usize,
    /// Region self-invalidation on zero-count external hits (§3.1);
    /// the paper's default is on, the ablation turns it off.
    pub self_invalidation: bool,
    /// Deliberate protocol fault, for checker self-tests.
    pub mutation: Mutation,
    /// The coherence machine under test.
    pub protocol: Protocol,
    /// Cluster count for [`Protocol::Hierarchical`] (nodes are split
    /// into contiguous groups); must be 1 for the other protocols.
    pub clusters: usize,
}

impl ModelConfig {
    /// The acceptance configuration: 3 nodes x 1 region x 2 lines, no
    /// mutation, flat snooping bus.
    pub fn default_3x2() -> Self {
        ModelConfig {
            nodes: 3,
            lines: 2,
            self_invalidation: true,
            mutation: Mutation::None,
            protocol: Protocol::Snoop,
            clusters: 1,
        }
    }

    /// The acceptance shape on the directory machine.
    pub fn directory_3x2() -> Self {
        ModelConfig {
            protocol: Protocol::DirectoryCgct,
            ..ModelConfig::default_3x2()
        }
    }

    /// The acceptance shape on the hierarchical machine, split into two
    /// clusters ({0, 1} and {2}).
    pub fn hierarchical_3x2() -> Self {
        ModelConfig {
            protocol: Protocol::Hierarchical,
            clusters: 2,
            ..ModelConfig::default_3x2()
        }
    }

    /// Validates the shape.
    ///
    /// # Panics
    ///
    /// Panics if the node, line, or cluster count is out of the
    /// supported range, or if the shape overflows the 128-bit state
    /// encoding.
    pub fn validate(&self) {
        assert!(
            (2..=4).contains(&self.nodes),
            "model supports 2-4 nodes, got {}",
            self.nodes
        );
        assert!(
            self.lines.is_power_of_two() && (1..=8).contains(&self.lines),
            "model supports 1/2/4/8 lines per region, got {}",
            self.lines
        );
        match self.protocol {
            Protocol::Hierarchical => assert!(
                (1..=self.nodes).contains(&self.clusters),
                "hierarchical model needs 1..=nodes clusters, got {}",
                self.clusters
            ),
            _ => assert_eq!(
                self.clusters, 1,
                "clusters only apply to the hierarchical protocol"
            ),
        }
        let bits = self.encoding_bits();
        assert!(
            bits <= 128,
            "state encoding needs {bits} bits (> 128); shrink nodes or lines"
        );
    }

    /// Width in bits of this shape's packed state key
    /// ([`GlobalState::encode`]); a checkable shape needs at most 128.
    pub fn encoding_bits(&self) -> usize {
        let node_bits = LINE_BITS * self.lines + REGION_BITS + COUNT_BITS;
        let home_bits = match self.protocol {
            Protocol::DirectoryCgct => DIR_LINE_BITS * self.lines + DIR_MASK_BITS,
            Protocol::Snoop | Protocol::Hierarchical => 0,
        };
        self.nodes * node_bits + home_bits
    }

    /// The cluster a node belongs to (contiguous split, mirroring the
    /// board-based clustering of `cgct_interconnect::Topology`).
    pub fn cluster_of(&self, node: usize) -> usize {
        node * self.clusters / self.nodes
    }

    /// The mutations that must each produce a counterexample under this
    /// configuration's protocol (faults wired into paths a protocol
    /// never takes cannot be caught there).
    pub fn applicable_faults(&self) -> Vec<Mutation> {
        let mut faults = Mutation::ALL_FAULTS.to_vec();
        match self.protocol {
            Protocol::Snoop => {}
            Protocol::DirectoryCgct => faults.push(Mutation::StaleRegionDirCache),
            Protocol::Hierarchical => {
                if self.clusters > 1 {
                    faults.push(Mutation::SkipClusterInvalidation);
                }
            }
        }
        faults
    }

    /// The line/region geometry of the modeled configuration.
    pub fn geometry(&self) -> Geometry {
        Geometry::new(64, 64 * self.lines as u64)
    }

    fn rca_config(&self) -> RcaConfig {
        RcaConfig {
            sets: 1,
            ways: 1,
            geometry: self.geometry(),
            self_invalidation: self.self_invalidation,
            favor_empty_replacement: true,
        }
    }
}

/// A deliberately broken protocol wiring, used to prove the checker can
/// fail (a checker that never finds anything proves nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Faithful wiring.
    #[default]
    None,
    /// Snoopers do not apply the line-state transition for invalidating
    /// requests: a stale S copy survives an RFO.
    KeepStaleSharers,
    /// Snoopers' region arrays never observe external requests: a region
    /// stays exclusive while another node fills lines of it.
    SkipExternalDowngrade,
    /// Snoop invalidations skip the `line_uncached` bookkeeping: the
    /// region line counts drift from the cache contents.
    LeakLineCount,
    /// The permission check treats externally-*clean* regions as
    /// exclusive, letting data reads go direct while sharers exist.
    OverclaimExclusive,
    /// The home's region-grain directory cache is installed once and
    /// never refreshed after directory updates: a stale mask can
    /// wrongly prove the region unshared and authorize a lookup bypass
    /// that skips a needed invalidation ([`Protocol::DirectoryCgct`]).
    StaleRegionDirCache,
    /// The inter-cluster region directory reports every remote cluster
    /// empty: line-grain snoops never leave the requester's cluster, so
    /// remote copies survive invalidating requests
    /// ([`Protocol::Hierarchical`]).
    SkipClusterInvalidation,
}

impl Mutation {
    /// The protocol-independent mutations that must each produce a
    /// counterexample under every protocol (see
    /// [`ModelConfig::applicable_faults`] for the full per-protocol
    /// list).
    pub const ALL_FAULTS: [Mutation; 4] = [
        Mutation::KeepStaleSharers,
        Mutation::SkipExternalDowngrade,
        Mutation::LeakLineCount,
        Mutation::OverclaimExclusive,
    ];

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Mutation> {
        Some(match name {
            "none" => Mutation::None,
            "keep-stale-sharers" => Mutation::KeepStaleSharers,
            "skip-external-downgrade" => Mutation::SkipExternalDowngrade,
            "leak-line-count" => Mutation::LeakLineCount,
            "overclaim-exclusive" => Mutation::OverclaimExclusive,
            "stale-region-dir-cache" => Mutation::StaleRegionDirCache,
            "skip-cluster-invalidation" => Mutation::SkipClusterInvalidation,
            _ => return None,
        })
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::KeepStaleSharers => "keep-stale-sharers",
            Mutation::SkipExternalDowngrade => "skip-external-downgrade",
            Mutation::LeakLineCount => "leak-line-count",
            Mutation::OverclaimExclusive => "overclaim-exclusive",
            Mutation::StaleRegionDirCache => "stale-region-dir-cache",
            Mutation::SkipClusterInvalidation => "skip-cluster-invalidation",
        }
    }
}

/// One node's abstract state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeState {
    /// MOESI state of each line of the region in this node's L2.
    pub lines: Vec<MoesiState>,
    /// The node's region entry state (`Invalid` = no entry).
    pub region: RegionState,
    /// The entry's cached-line count (0 when no entry).
    pub line_count: u32,
}

impl NodeState {
    /// Number of lines this node actually holds valid.
    pub fn cached_lines(&self) -> u32 {
        self.lines.iter().filter(|s| s.is_valid()).count() as u32
    }
}

/// The home memory controller's state under
/// [`Protocol::DirectoryCgct`]: the per-line full-map entries plus the
/// region-grain directory cache's node-presence mask.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HomeState {
    /// Per-line directory entries, indexed like the nodes' line vectors
    /// (the working machine installs them into a real
    /// [`DirectoryController`]).
    pub lines: Vec<DirEntry>,
    /// The region directory cache's mask (`None` = not cached yet).
    pub cache_mask: Option<u8>,
}

/// One global state of the modeled machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalState {
    /// Per-node states, indexed by node id.
    pub nodes: Vec<NodeState>,
    /// The home controller's directory state
    /// ([`Protocol::DirectoryCgct`] only).
    pub home: Option<HomeState>,
}

impl GlobalState {
    /// The initial state: nothing cached, no region entries, an empty
    /// home directory.
    pub fn initial(cfg: &ModelConfig) -> GlobalState {
        GlobalState {
            nodes: (0..cfg.nodes)
                .map(|_| NodeState {
                    lines: vec![MoesiState::Invalid; cfg.lines],
                    region: RegionState::Invalid,
                    line_count: 0,
                })
                .collect(),
            home: (cfg.protocol == Protocol::DirectoryCgct).then(|| HomeState {
                lines: vec![DirEntry::default(); cfg.lines],
                cache_mask: None,
            }),
        }
    }

    /// Packs the state into an exact dedup key (3 bits per line state,
    /// 3 bits region state, 4 bits line count per node; directory
    /// protocols append 7 bits per home line entry plus 5 for the
    /// region cache mask — protocols without a home keep the original
    /// layout bit-for-bit).
    pub fn encode(&self) -> u128 {
        let mut key = KeyPacker::default();
        for node in &self.nodes {
            key.node(&node.lines, node.region, node.line_count);
        }
        if let Some(home) = &self.home {
            for entry in &home.lines {
                key.home_line(*entry);
            }
            key.cache_mask(home.cache_mask);
        }
        key.0
    }
}

/// Key field widths (see [`GlobalState::encode`]).
const LINE_BITS: usize = 3;
const REGION_BITS: usize = 3;
const COUNT_BITS: usize = 4;
/// A home line entry: owner (0 = none, else node + 1) then sharers.
const OWNER_BITS: usize = 3;
const SHARER_BITS: usize = 4;
const DIR_LINE_BITS: usize = OWNER_BITS + SHARER_BITS;
/// The region cache mask: a present flag then 4 node bits.
const DIR_MASK_BITS: usize = 5;

/// Builds a state key field by field. Both the abstract state and the
/// working machine encode through it, so the layout lives in one place.
#[derive(Default)]
struct KeyPacker(u128);

impl KeyPacker {
    fn push(&mut self, bits: usize, value: u128) {
        self.0 = (self.0 << bits) | value;
    }

    fn node(&mut self, lines: &[MoesiState], region: RegionState, line_count: u32) {
        for &line in lines {
            self.push(LINE_BITS, moesi_index(line) as u128);
        }
        self.push(REGION_BITS, region_index(region) as u128);
        self.push(COUNT_BITS, line_count as u128);
    }

    fn home_line(&mut self, entry: DirEntry) {
        self.push(OWNER_BITS, entry.owner.map_or(0, |o| o as u128 + 1));
        self.push(SHARER_BITS, entry.sharers as u128);
    }

    fn cache_mask(&mut self, mask: Option<u8>) {
        self.push(
            DIR_MASK_BITS,
            mask.map_or(0, |m| 0b1_0000 | (m as u128 & 0b1111)),
        );
    }
}

impl fmt::Display for GlobalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "n{i}:[")?;
            for &line in &node.lines {
                write!(f, "{}", line.letter())?;
            }
            write!(f, "] {}({})", node.region.mnemonic(), node.line_count)?;
        }
        if let Some(home) = &self.home {
            write!(f, "  dir:[")?;
            for (l, entry) in home.lines.iter().enumerate() {
                if l > 0 {
                    write!(f, " ")?;
                }
                match entry.owner {
                    Some(o) => write!(f, "o{o}")?,
                    None => write!(f, "o-")?,
                }
                write!(f, "s{:x}", entry.sharers)?;
            }
            match home.cache_mask {
                Some(m) => write!(f, "] cache:{m:x}")?,
                None => write!(f, "] cache:-")?,
            }
        }
        Ok(())
    }
}

fn moesi_index(s: MoesiState) -> u8 {
    match s {
        MoesiState::Modified => 0,
        MoesiState::Owned => 1,
        MoesiState::Exclusive => 2,
        MoesiState::Shared => 3,
        MoesiState::Invalid => 4,
    }
}

fn region_index(s: RegionState) -> u8 {
    RegionState::ALL
        .iter()
        .position(|&r| r == s)
        .expect("all region states enumerated") as u8
}

/// One atomic step of the modeled machine — the events a real node can
/// initiate at its coherence point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Data load that misses (issues `Read`; a silent hit is not a step).
    Load {
        /// Requesting node.
        node: usize,
        /// Line index within the region.
        line: usize,
    },
    /// Instruction fetch that misses (issues `ReadShared`).
    Ifetch {
        /// Requesting node.
        node: usize,
        /// Line index within the region.
        line: usize,
    },
    /// Store: silent E→M, `Upgrade` from S/O, or `ReadExclusive` miss.
    Store {
        /// Requesting node.
        node: usize,
        /// Line index within the region.
        line: usize,
    },
    /// `dcbz`: allocate the line modifiable without reading memory.
    Dcbz {
        /// Requesting node.
        node: usize,
        /// Line index within the region.
        line: usize,
    },
    /// L2 replacement of a cached line (write-back if dirty).
    EvictLine {
        /// Evicting node.
        node: usize,
        /// Line index within the region.
        line: usize,
    },
    /// RCA replacement of the region entry (flushes its cached lines).
    EvictRegion {
        /// Evicting node.
        node: usize,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Load { node, line } => write!(f, "n{node} load L{line}"),
            Event::Ifetch { node, line } => write!(f, "n{node} ifetch L{line}"),
            Event::Store { node, line } => write!(f, "n{node} store L{line}"),
            Event::Dcbz { node, line } => write!(f, "n{node} dcbz L{line}"),
            Event::EvictLine { node, line } => write!(f, "n{node} evict L{line}"),
            Event::EvictRegion { node } => write!(f, "n{node} evict region"),
        }
    }
}

/// Enumerates the events enabled in `state`, in a fixed deterministic
/// order. Events that would be architectural no-ops (e.g. a load hit)
/// are not steps: they cannot change the global state.
pub fn enabled_events(cfg: &ModelConfig, state: &GlobalState) -> Vec<Event> {
    let mut events = Vec::new();
    enabled_events_into(cfg, state, &mut events);
    events
}

/// [`enabled_events`] into a caller-owned buffer (cleared first), so an
/// exploration allocates its event list once.
pub(crate) fn enabled_events_into(cfg: &ModelConfig, state: &GlobalState, events: &mut Vec<Event>) {
    events.clear();
    for node in 0..cfg.nodes {
        let n = &state.nodes[node];
        for line in 0..cfg.lines {
            let s = n.lines[line];
            if s == MoesiState::Invalid {
                events.push(Event::Load { node, line });
                events.push(Event::Ifetch { node, line });
                events.push(Event::Store { node, line });
            }
            // Stores to E (silent upgrade), S and O (upgrade request).
            if matches!(
                s,
                MoesiState::Exclusive | MoesiState::Shared | MoesiState::Owned
            ) {
                events.push(Event::Store { node, line });
            }
            // dcbz is a step from every state but M (M is a no-op write).
            if s != MoesiState::Modified {
                events.push(Event::Dcbz { node, line });
            }
            if s.is_valid() {
                events.push(Event::EvictLine { node, line });
            }
        }
        if n.region.is_valid() {
            events.push(Event::EvictRegion { node });
        }
    }
}

/// Working form of one step: concrete line states plus a *real*
/// [`RegionCoherenceArray`] per node (and, on the directory machine, a
/// real [`DirectoryController`]), loaded from the abstract state so the
/// step runs the production transition code. An exploration loads each
/// expanded state once into a base machine and, before every event,
/// copies that base into one stepping machine with `clone_from`, which
/// reuses the stepping machine's allocations.
pub(crate) struct Working {
    lines: Vec<Vec<MoesiState>>,
    rcas: Vec<RegionCoherenceArray>,
    home: Option<HomeDir>,
}

impl Clone for Working {
    fn clone(&self) -> Self {
        Working {
            lines: self.lines.clone(),
            rcas: self.rcas.clone(),
            home: self.home.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.lines.clone_from(&source.lines);
        self.rcas.clone_from(&source.rcas);
        self.home.clone_from(&source.home);
    }
}

/// The home controller's working state: the production directory plus
/// the region-grain directory cache's mask for [`REGION`].
struct HomeDir {
    dir: DirectoryController,
    cache_mask: Option<u64>,
}

impl Clone for HomeDir {
    fn clone(&self) -> Self {
        HomeDir {
            dir: self.dir.clone(),
            cache_mask: self.cache_mask,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.dir.clone_from(&source.dir);
        self.cache_mask = source.cache_mask;
    }
}

impl HomeDir {
    /// The entry for `line`.
    fn line(&self, line: usize) -> DirEntry {
        self.dir.entry(LineAddr(line as u64))
    }
}

impl Working {
    /// Allocates an empty machine of `cfg`'s shape; [`Working::load`]
    /// gives it a state.
    pub(crate) fn new(cfg: &ModelConfig) -> Working {
        Working {
            lines: vec![vec![MoesiState::Invalid; cfg.lines]; cfg.nodes],
            rcas: (0..cfg.nodes)
                .map(|_| RegionCoherenceArray::new(cfg.rca_config()))
                .collect(),
            home: (cfg.protocol == Protocol::DirectoryCgct).then(|| HomeDir {
                dir: DirectoryController::new(),
                cache_mask: None,
            }),
        }
    }

    /// Overwrites every part of the machine that a step reads or writes
    /// with `state` (of the shape this machine was built for), so nothing
    /// of the previously loaded state survives: each region entry is
    /// dropped and rebuilt from scratch, and every home line is
    /// re-installed (an empty entry is removed).
    pub(crate) fn load(&mut self, state: &GlobalState) {
        for ((lines, rca), n) in self.lines.iter_mut().zip(&mut self.rcas).zip(&state.nodes) {
            lines.copy_from_slice(&n.lines);
            rca.invalidate(REGION);
            if let (Some(local), Some(external)) = (n.region.local(), n.region.external()) {
                // Reconstruct the entry through the real fill path: the
                // fill kind fixes the local half, the response the
                // external half.
                let fill = match local {
                    LocalPart::Dirty => FillKind::Exclusive,
                    LocalPart::Clean => FillKind::Shared,
                };
                let resp = match external {
                    ExternalPart::Invalid => RegionSnoopResponse::NONE,
                    ExternalPart::Clean => RegionSnoopResponse {
                        clean: true,
                        dirty: false,
                    },
                    ExternalPart::Dirty => RegionSnoopResponse {
                        clean: false,
                        dirty: true,
                    },
                };
                rca.local_fill(REGION, fill, Some(resp), 0);
                debug_assert_eq!(rca.state(REGION), n.region, "entry reconstruction");
                for _ in 0..n.line_count {
                    rca.line_cached(REGION);
                }
            }
        }
        if let (Some(w), Some(h)) = (&mut self.home, &state.home) {
            for (l, &entry) in h.lines.iter().enumerate() {
                w.dir.install_entry(LineAddr(l as u64), entry);
            }
            w.cache_mask = h.cache_mask.map(u64::from);
        }
    }

    /// The node's region entry as (state, cached-line count).
    fn region_of(&self, node: usize) -> (RegionState, u32) {
        self.rcas[node]
            .entry(REGION)
            .map_or((RegionState::Invalid, 0), |e| (e.state, e.line_count))
    }

    /// The packed key of the current state: equal to
    /// `self.materialize().encode()`, without building the state.
    pub(crate) fn encode(&self) -> u128 {
        let mut key = KeyPacker::default();
        for (node, lines) in self.lines.iter().enumerate() {
            let (region, line_count) = self.region_of(node);
            key.node(lines, region, line_count);
        }
        if let Some(home) = &self.home {
            for line in 0..self.lines[0].len() {
                key.home_line(home.line(line));
            }
            key.cache_mask(home.cache_mask.map(|m| m as u8));
        }
        key.0
    }

    /// The current state in abstract form.
    pub(crate) fn materialize(&self) -> GlobalState {
        GlobalState {
            nodes: self
                .lines
                .iter()
                .enumerate()
                .map(|(node, lines)| {
                    let (region, line_count) = self.region_of(node);
                    NodeState {
                        lines: lines.clone(),
                        region,
                        line_count,
                    }
                })
                .collect(),
            home: self.home.as_ref().map(|h| HomeState {
                lines: (0..self.lines[0].len()).map(|line| h.line(line)).collect(),
                cache_mask: h.cache_mask.map(|m| m as u8),
            }),
        }
    }

    /// Takes `event` (enabled in the loaded state) in place.
    pub(crate) fn step(&mut self, cfg: &ModelConfig, event: Event) {
        match event {
            Event::Load { node, line } => {
                debug_assert_eq!(self.lines[node][line], MoesiState::Invalid);
                self.request(cfg, node, line, ReqKind::Read);
            }
            Event::Ifetch { node, line } => {
                debug_assert_eq!(self.lines[node][line], MoesiState::Invalid);
                self.request(cfg, node, line, ReqKind::ReadShared);
            }
            Event::Store { node, line } => match self.lines[node][line] {
                MoesiState::Modified => unreachable!("store hit on M is not a step"),
                MoesiState::Exclusive => {
                    // Silent E→M: the region's local half is already Dirty.
                    self.lines[node][line] = MoesiState::Modified;
                }
                MoesiState::Shared | MoesiState::Owned => {
                    self.request(cfg, node, line, ReqKind::Upgrade);
                    self.lines[node][line] = MoesiState::Modified;
                }
                MoesiState::Invalid => {
                    self.request(cfg, node, line, ReqKind::ReadExclusive);
                }
            },
            Event::Dcbz { node, line } => match self.lines[node][line] {
                MoesiState::Modified => unreachable!("dcbz on M is not a step"),
                MoesiState::Exclusive => {
                    self.lines[node][line] = MoesiState::Modified;
                }
                _ => {
                    self.request(cfg, node, line, ReqKind::Dcbz);
                }
            },
            Event::EvictLine { node, line } => {
                let state = self.lines[node][line];
                debug_assert!(state.is_valid());
                // Mirror `fill_l2`'s displacement path: remove first, then
                // write dirty data back through the coherence point.
                self.lines[node][line] = MoesiState::Invalid;
                self.rcas[node].line_uncached(REGION);
                if state.is_dirty() {
                    self.request(cfg, node, line, ReqKind::Writeback);
                }
            }
            Event::EvictRegion { node } => {
                // Mirror an RCA displacement: the entry is gone, and
                // `flush_region` pushes every cached line out (dirty lines go
                // straight to the recorded controller — no snooping).
                self.rcas[node].invalidate(REGION);
                for line in 0..cfg.lines {
                    self.lines[node][line] = MoesiState::Invalid;
                }
            }
        }
    }

    /// Runs the home directory's real transition for `req` and
    /// refreshes the region-grain directory cache. The faithful system
    /// recomputes the mask after *every* directory update; the
    /// stale-region-dir-cache mutation installs it once and never
    /// refreshes.
    fn home_handle(
        &mut self,
        cfg: &ModelConfig,
        requester: usize,
        line: usize,
        req: ReqKind,
    ) -> (DirAction, bool) {
        let lines_per_node = self.lines[0].len();
        let home = self.home.as_mut().expect("directory protocol");
        let out = home
            .dir
            .handle(LineAddr(line as u64), requester as u8, req.into());
        if cfg.mutation != Mutation::StaleRegionDirCache || home.cache_mask.is_none() {
            home.cache_mask = Some(
                home.dir
                    .region_mask((0..lines_per_node as u64).map(LineAddr)),
            );
        }
        out
    }

    /// Which nodes see a line-grain snoop from `requester`: everyone on
    /// the flat bus; on the hierarchical machine only the requester's
    /// cluster plus clusters caching at least one line of the region.
    /// The cluster counts are derived exactly from the line states —
    /// the same truth the live system maintains incrementally and its
    /// sanitizer checks. This mirrors the live broadcast arm's cluster
    /// mask (`visit`), which is likewise only a visibility filter.
    fn snoop_visibility(&self, cfg: &ModelConfig, requester: usize) -> u64 {
        let nodes = self.lines.len();
        if cfg.protocol != Protocol::Hierarchical || cfg.clusters <= 1 {
            return (1 << nodes) - 1;
        }
        let my_cluster = cfg.cluster_of(requester);
        (0..nodes)
            .filter(|&other| {
                let c = cfg.cluster_of(other);
                if c == my_cluster {
                    return true;
                }
                if cfg.mutation == Mutation::SkipClusterInvalidation {
                    // FAULT: the inter-cluster directory reports every
                    // remote cluster empty.
                    return false;
                }
                (0..nodes)
                    .any(|n| cfg.cluster_of(n) == c && self.lines[n].iter().any(|s| s.is_valid()))
            })
            .fold(0, |mask, other| mask | 1 << other)
    }

    /// Region snoop responses from every other node (step 3 of the bus
    /// sequence; in the directory and hierarchical machines the same
    /// notifications are relayed through the home's region directory
    /// and reach every node).
    fn region_external_all(
        &mut self,
        cfg: &ModelConfig,
        requester: usize,
        req: ReqKind,
        fill_exclusive: bool,
    ) -> RegionSnoopResponse {
        let mut region_resp = RegionSnoopResponse::NONE;
        for other in 0..self.lines.len() {
            if other == requester {
                continue;
            }
            if cfg.mutation == Mutation::SkipExternalDowngrade {
                continue; // FAULT: regions never see external traffic
            }
            region_resp.merge(self.rcas[other].external_request(REGION, req, fill_exclusive));
        }
        region_resp
    }

    /// Issues a coherence-point request, mirroring the permission arms
    /// of `MemorySystem::coherent_request` (one broadcast arm for the
    /// flat bus and the hierarchy) and
    /// `MemorySystem::directory_cgct_request` (atomic-interconnect
    /// model).
    fn request(&mut self, cfg: &ModelConfig, requester: usize, line: usize, req: ReqKind) {
        if cfg.protocol == Protocol::DirectoryCgct && req == ReqKind::Writeback {
            // Write-backs travel point-to-point to the home in every
            // directory machine, before any permission check; the home
            // drops the write-back issuer's ownership.
            self.home_handle(cfg, requester, line, req);
            return;
        }
        let mut permission = self.rcas[requester].permission(REGION, req);
        if cfg.mutation == Mutation::OverclaimExclusive
            && permission == RegionPermission::Broadcast
            && self.rcas[requester].state(REGION).is_externally_clean()
        {
            // FAULT: pretend Table 1 lets every request in a CC/DC
            // region skip the broadcast (only shared reads may).
            permission = match req {
                ReqKind::Upgrade | ReqKind::Dcbz => RegionPermission::CompleteLocally,
                _ => RegionPermission::DirectToMemory,
            };
        }
        match permission {
            RegionPermission::CompleteLocally => {
                if cfg.protocol == Protocol::DirectoryCgct {
                    // The per-line directory still learns of the
                    // request (the off-critical-path update message of
                    // `directory_cgct_request`); the region claim
                    // guarantees the returned action names no live
                    // copy, so no coherence message is modeled — the
                    // invariants prove that guarantee at every state.
                    self.home_handle(cfg, requester, line, req);
                }
                self.rcas[requester].local_fill(REGION, FillKind::Exclusive, None, 0);
                if req == ReqKind::Dcbz {
                    self.fill(requester, line, MoesiState::Modified);
                }
                // Upgrades touch the line in the caller (as the store
                // path does after `coherent_request` returns).
            }
            RegionPermission::DirectToMemory => {
                if req == ReqKind::Writeback {
                    return; // fire-and-forget to the recorded controller
                }
                if cfg.protocol == Protocol::DirectoryCgct {
                    // The home still updates its entry, but the lookup
                    // (and any directory-driven message) is bypassed;
                    // the grant mirrors `directory_request`'s
                    // exclusive flag — except that a shared read riding
                    // an externally-clean claim must refuse an
                    // exclusive grant (other nodes hold CC entries the
                    // unannounced E copy would falsify; the checker
                    // found exactly this trace).
                    let (_, exclusive) = self.home_handle(cfg, requester, line, req);
                    let fill_state = match req {
                        ReqKind::ReadShared => MoesiState::Shared,
                        ReqKind::Read => {
                            if exclusive {
                                MoesiState::Exclusive
                            } else {
                                MoesiState::Shared
                            }
                        }
                        _ => MoesiState::Modified,
                    };
                    self.rcas[requester].local_fill(
                        REGION,
                        FillKind::from_moesi(fill_state),
                        None,
                        0,
                    );
                    self.fill(requester, line, fill_state);
                    return;
                }
                let fill_state = match req {
                    ReqKind::Read => MoesiState::Exclusive,
                    ReqKind::ReadShared => MoesiState::Shared,
                    _ => MoesiState::Modified,
                };
                let fill = FillKind::from_moesi(fill_state);
                self.rcas[requester].local_fill(REGION, fill, None, 0);
                self.fill(requester, line, fill_state);
            }
            RegionPermission::Broadcast if cfg.protocol == Protocol::DirectoryCgct => {
                self.directory_broadcast(cfg, requester, line, req);
            }
            RegionPermission::Broadcast => {
                // 1. Snoop every other visible node's line state (all of
                //    them on the flat bus; cluster-filtered on the
                //    hierarchical machine).
                let visible = self.snoop_visibility(cfg, requester);
                let mut line_resp = LineSnoopResponse::default();
                for other in 0..self.lines.len() {
                    if other == requester || visible & (1 << other) == 0 {
                        continue;
                    }
                    let state = self.lines[other][line];
                    let out = snoop_line(state, req);
                    line_resp.merge(out.response);
                    if out.next != state {
                        if cfg.mutation == Mutation::KeepStaleSharers && req.invalidates_others() {
                            // FAULT: the snooper ignores the invalidation.
                            continue;
                        }
                        self.lines[other][line] = out.next;
                        if out.next == MoesiState::Invalid
                            && cfg.mutation != Mutation::LeakLineCount
                        {
                            self.rcas[other].line_uncached(REGION);
                        }
                    }
                }
                // 2. Requester fill state and its region consequence.
                let fill_state = requester_next_state(req, line_resp);
                let fill_exclusive = fill_state.is_some_and(|s| s.can_silently_modify());
                // 3. Region snoop responses (after the line snoop, so a
                //    now-empty region can self-invalidate). These are
                //    machine-wide even on the hierarchical machine.
                let region_resp = self.region_external_all(cfg, requester, req, fill_exclusive);
                // 4. Requester's region entry (write-backs leave none).
                if req != ReqKind::Writeback {
                    let fill = fill_state.map_or(FillKind::Shared, FillKind::from_moesi);
                    self.rcas[requester].local_fill(REGION, fill, Some(region_resp), 0);
                }
                // 5. Fill the line.
                if let Some(state) = fill_state {
                    self.fill(requester, line, state);
                }
            }
        }
    }

    /// The directory machine's no-claim path, mirroring
    /// `directory_request` with `RegionUpkeep::FullExternal`: the home
    /// consults (or, on a region-cache hit proving the region unshared,
    /// skips) the per-line entry, drives the named caches, and relays
    /// the region-grain outcome to every node.
    fn directory_broadcast(
        &mut self,
        cfg: &ModelConfig,
        requester: usize,
        line: usize,
        req: ReqKind,
    ) {
        // The lookup-bypass decision reads the region cache *before*
        // this request's own update, exactly as the home does.
        let skip = self
            .home
            .as_ref()
            .expect("directory protocol")
            .cache_mask
            .is_some_and(|m| m & !(1u64 << requester) == 0);
        let (action, exclusive) = self.home_handle(cfg, requester, line, req);
        let (fwd_owner, invalidate) = match action {
            DirAction::ForwardToOwner { owner, invalidate } => (Some(owner as usize), invalidate),
            DirAction::FromMemory { invalidate } | DirAction::InvalidateOnly { invalidate } => {
                (None, invalidate)
            }
        };
        if !skip {
            // Apply the directory's invalidations at the named caches —
            // the directory machine's replacement for the bus snoop.
            // Stale targets (silent clean evictions) hold nothing and
            // are no-ops, as in the live system.
            for target in invalidate {
                let t = target as usize;
                if t == requester || t >= self.lines.len() {
                    continue;
                }
                if !self.lines[t][line].is_valid() {
                    continue;
                }
                if cfg.mutation == Mutation::KeepStaleSharers && req.invalidates_others() {
                    continue; // FAULT: the target ignores the invalidation
                }
                self.lines[t][line] = MoesiState::Invalid;
                if cfg.mutation != Mutation::LeakLineCount {
                    self.rcas[t].line_uncached(REGION);
                }
            }
        }
        // The requester's grant comes from the directory, not from
        // merged snoop responses.
        let fill_state = match req {
            ReqKind::Read | ReqKind::ReadShared => {
                if exclusive {
                    MoesiState::Exclusive
                } else {
                    MoesiState::Shared
                }
            }
            _ => MoesiState::Modified,
        };
        // Region upkeep runs at the home, *before* any three-hop
        // forward reaches the owner (`directory_request` orders it the
        // same way): an owner about to lose its only line still answers
        // the region snoop as a holder, so its entry survives — stale
        // but conservative — rather than self-invalidating.
        let fill_exclusive = fill_state.can_silently_modify();
        let region_resp = self.region_external_all(cfg, requester, req, fill_exclusive);
        self.rcas[requester].local_fill(
            REGION,
            FillKind::from_moesi(fill_state),
            Some(region_resp),
            0,
        );
        if !skip {
            if let Some(o) = fwd_owner {
                if o != requester && o < self.lines.len() {
                    let state = self.lines[o][line];
                    if state.is_valid() {
                        // Live owner: the forward applies the same
                        // transition a bus snoop would.
                        let out = snoop_line(state, req);
                        if out.next != state
                            && !(cfg.mutation == Mutation::KeepStaleSharers
                                && req.invalidates_others())
                        {
                            self.lines[o][line] = out.next;
                            if out.next == MoesiState::Invalid
                                && cfg.mutation != Mutation::LeakLineCount
                            {
                                self.rcas[o].line_uncached(REGION);
                            }
                        }
                    }
                    // Stale owner: the home retries from memory —
                    // no state change anywhere.
                }
            }
        }
        self.fill(requester, line, fill_state);
    }

    /// Fills `line` into `node`'s cache (inclusion bookkeeping on a new
    /// allocation only, as `MemorySystem::fill_l2` does).
    fn fill(&mut self, node: usize, line: usize, state: MoesiState) {
        let newly_cached = self.lines[node][line] == MoesiState::Invalid;
        self.lines[node][line] = state;
        if newly_cached {
            self.rcas[node].line_cached(REGION);
        }
    }
}

/// Applies `event` to `state`, returning the successor. The caller must
/// only pass events from [`enabled_events`].
pub fn apply(cfg: &ModelConfig, state: &GlobalState, event: Event) -> GlobalState {
    let mut w = Working::new(cfg);
    w.load(state);
    w.step(cfg, event);
    w.materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgct_sim::hash::StableHashSet;
    use std::collections::VecDeque;

    /// Walks every reachable state of `cfg` and steps each enabled event
    /// three times: on one working machine reloaded for every step of
    /// the walk, on one working machine copied (`clone_from`) from a
    /// base reloaded once per state, as `explore` does, and through a
    /// fresh [`apply`]. Any state that leaks across a reload or a copy
    /// (an RCA entry's owner hint or controller, a directory entry, the
    /// region cache mask) makes them disagree. Returns the transitions
    /// compared.
    fn reload_matches_fresh_apply(cfg: &ModelConfig) -> u64 {
        let initial = GlobalState::initial(cfg);
        let mut seen: StableHashSet<u128> = StableHashSet::default();
        seen.insert(initial.encode());
        let mut queue = VecDeque::from([initial]);
        let mut reloaded = Working::new(cfg);
        let mut base = Working::new(cfg);
        let mut copied = Working::new(cfg);
        let mut transitions = 0;
        while let Some(state) = queue.pop_front() {
            base.load(&state);
            for event in enabled_events(cfg, &state) {
                let fresh = apply(cfg, &state, event);
                reloaded.load(&state);
                reloaded.step(cfg, event);
                copied.clone_from(&base);
                copied.step(cfg, event);
                for working in [&reloaded, &copied] {
                    assert_eq!(working.encode(), fresh.encode(), "{state} / {event}");
                    assert_eq!(working.materialize(), fresh, "{state} / {event}");
                }
                transitions += 1;
                if seen.insert(fresh.encode()) {
                    queue.push_back(fresh);
                }
            }
        }
        transitions
    }

    #[test]
    fn reused_working_machine_steps_like_a_fresh_one() {
        let dir_2x2 = ModelConfig {
            nodes: 2,
            protocol: Protocol::DirectoryCgct,
            ..ModelConfig::default_3x2()
        };
        for (cfg, golden_transitions) in [
            (ModelConfig::default_3x2(), 116_040),
            (ModelConfig::hierarchical_3x2(), 116_040),
            (dir_2x2, 74_978),
        ] {
            assert_eq!(
                reload_matches_fresh_apply(&cfg),
                golden_transitions,
                "{:?}",
                cfg.protocol
            );
        }
    }

    #[test]
    fn initial_state_is_empty() {
        let cfg = ModelConfig::default_3x2();
        let s = GlobalState::initial(&cfg);
        assert_eq!(s.nodes.len(), 3);
        assert!(s.nodes.iter().all(|n| n.cached_lines() == 0));
        assert_eq!(s.encode(), {
            // All lines Invalid (index 4), regions Invalid (index 0),
            // counts 0 — a fixed, reproducible key.
            let mut k: u128 = 0;
            for _ in 0..3 {
                k = (k << 3) | 4; // line 0: Invalid
                k = (k << 3) | 4; // line 1: Invalid
                k <<= 3; // region: Invalid (index 0)
                k <<= 4; // line count: 0
            }
            k
        });
    }

    #[test]
    fn first_load_broadcasts_and_takes_region_exclusive() {
        let cfg = ModelConfig::default_3x2();
        let s0 = GlobalState::initial(&cfg);
        let s1 = apply(&cfg, &s0, Event::Load { node: 0, line: 0 });
        assert_eq!(s1.nodes[0].lines[0], MoesiState::Exclusive);
        assert_eq!(s1.nodes[0].region, RegionState::DirtyInvalid);
        assert_eq!(s1.nodes[0].line_count, 1);
        assert_eq!(s1.nodes[1].region, RegionState::Invalid);
    }

    #[test]
    fn second_node_read_downgrades_both_grains() {
        let cfg = ModelConfig::default_3x2();
        let s0 = GlobalState::initial(&cfg);
        let s1 = apply(&cfg, &s0, Event::Store { node: 0, line: 0 });
        assert_eq!(s1.nodes[0].lines[0], MoesiState::Modified);
        let s2 = apply(&cfg, &s1, Event::Load { node: 1, line: 0 });
        // Owner keeps the dirty line in O, requester fills S. The owner's
        // external half becomes Clean (the requester holds only S), the
        // requester's external half Dirty (the owner answered Region Dirty).
        assert_eq!(s2.nodes[0].lines[0], MoesiState::Owned);
        assert_eq!(s2.nodes[1].lines[0], MoesiState::Shared);
        assert_eq!(s2.nodes[0].region, RegionState::DirtyClean);
        assert_eq!(s2.nodes[1].region, RegionState::CleanDirty);
    }

    #[test]
    fn self_invalidation_fires_on_empty_region() {
        let cfg = ModelConfig::default_3x2();
        let s0 = GlobalState::initial(&cfg);
        let s1 = apply(&cfg, &s0, Event::Load { node: 0, line: 0 });
        let s2 = apply(&cfg, &s1, Event::EvictLine { node: 0, line: 0 });
        assert_eq!(s2.nodes[0].line_count, 0);
        assert!(s2.nodes[0].region.is_valid(), "entry outlives its lines");
        // Another node's RFO hits the empty region: self-invalidation
        // lets the requester take it exclusively.
        let s3 = apply(&cfg, &s2, Event::Store { node: 1, line: 0 });
        assert_eq!(s3.nodes[0].region, RegionState::Invalid);
        assert_eq!(s3.nodes[1].region, RegionState::DirtyInvalid);
    }

    #[test]
    fn enabled_events_are_deterministic_and_plausible() {
        let cfg = ModelConfig::default_3x2();
        let s0 = GlobalState::initial(&cfg);
        let a = enabled_events(&cfg, &s0);
        let b = enabled_events(&cfg, &s0);
        assert_eq!(a, b);
        // From empty: per node and line, Load/Ifetch/Store/Dcbz.
        assert_eq!(a.len(), 3 * 2 * 4);
        assert!(a.contains(&Event::Dcbz { node: 2, line: 1 }));
    }

    #[test]
    fn encode_roundtrips_distinct_states() {
        let cfg = ModelConfig::default_3x2();
        let s0 = GlobalState::initial(&cfg);
        let s1 = apply(&cfg, &s0, Event::Load { node: 0, line: 0 });
        assert_ne!(s0.encode(), s1.encode());
        assert_eq!(s1.encode(), s1.clone().encode());
    }

    #[test]
    fn display_is_compact() {
        let cfg = ModelConfig::default_3x2();
        let s1 = apply(
            &cfg,
            &GlobalState::initial(&cfg),
            Event::Load { node: 0, line: 0 },
        );
        let text = format!("{s1}");
        assert!(text.starts_with("n0:[EI] DI(1)"), "got {text}");
    }
}
