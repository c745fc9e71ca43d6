//! A full-map directory coherence protocol — the comparison point the
//! paper positions CGCT against (§1.2):
//!
//! > "In effect, it enables a broadcast-based system to achieve much of
//! > the benefit of a directory-based system (low latency access to
//! > non-shared data, lower interconnect traffic, and improved
//! > scalability) without the disadvantage of three-hop cache-to-cache
//! > transfers."
//!
//! Each memory controller keeps a full-map entry per line it owns:
//! the current owner (a cache holding the line in E/M/O, which may have
//! modified it silently) and a sharer bit-vector. Requests travel
//! point-to-point to the home controller; reads of owned lines are
//! *forwarded* to the owner — the three-hop path CGCT avoids. Sharer
//! information may be stale after silent clean evictions, which only
//! causes harmless extra invalidations (the standard full-map behaviour).

use cgct_cache::{LineAddr, RegionAddr, ReqKind};
use cgct_sim::hash::StableHashMap;

/// One line's directory state at its home controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DirEntry {
    /// Cache holding the line in an ownership state (E/M/O): data must be
    /// fetched from (or invalidated at) this cache, not memory.
    pub owner: Option<u8>,
    /// Bit-vector of caches that may hold shared copies (may
    /// over-approximate after silent evictions).
    pub sharers: u64,
}

impl DirEntry {
    /// Whether any cache may hold the line.
    pub fn is_cached(&self) -> bool {
        self.owner.is_some() || self.sharers != 0
    }

    /// Iterates the sharer ids set in the bit-vector.
    pub fn sharer_ids(&self) -> impl Iterator<Item = u8> + '_ {
        (0..64u8).filter(|i| self.sharers & (1 << i) != 0)
    }

    /// Node-presence mask: the sharer bits plus the owner's bit.
    pub fn presence(&self) -> u64 {
        let owner = self
            .owner
            .map_or(0, |o| 1u64.checked_shl(o.into()).unwrap_or(0));
        self.sharers | owner
    }

    /// Whether the entry lists `node`, as owner or sharer.
    pub fn lists(&self, node: usize) -> bool {
        u32::try_from(node)
            .ok()
            .and_then(|n| 1u64.checked_shl(n))
            .is_some_and(|bit| self.presence() & bit != 0)
    }
}

/// The home controller's decision for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirAction {
    /// Memory supplies the data (two hops: requester -> home -> requester).
    FromMemory {
        /// Caches whose (possibly stale) shared copies must be invalidated
        /// first (empty for reads).
        invalidate: Vec<u8>,
    },
    /// The owner cache supplies the data (three hops: requester -> home ->
    /// owner -> requester).
    ForwardToOwner {
        /// The owning cache.
        owner: u8,
        /// Additional sharers to invalidate (exclusive requests only).
        invalidate: Vec<u8>,
    },
    /// No data movement needed (upgrades): just invalidations.
    InvalidateOnly {
        /// Caches to invalidate.
        invalidate: Vec<u8>,
    },
}

impl DirAction {
    /// The caches this action invalidates (stale targets included).
    pub fn invalidate(&self) -> &[u8] {
        match self {
            DirAction::FromMemory { invalidate }
            | DirAction::ForwardToOwner { invalidate, .. }
            | DirAction::InvalidateOnly { invalidate } => invalidate,
        }
    }
}

/// What the requester asked the directory for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirRequest {
    /// Read for a shared or exclusive copy.
    Read,
    /// Read for ownership (store miss / dcbz).
    ReadExclusive,
    /// Upgrade an existing shared copy to modifiable.
    Upgrade,
    /// Write a dirty line back to memory.
    Writeback,
}

impl From<ReqKind> for DirRequest {
    /// The per-line directory request a coherence request maps to.
    fn from(req: ReqKind) -> DirRequest {
        match req {
            ReqKind::Read | ReqKind::ReadShared => DirRequest::Read,
            ReqKind::ReadExclusive | ReqKind::Dcbz => DirRequest::ReadExclusive,
            ReqKind::Upgrade => DirRequest::Upgrade,
            ReqKind::Writeback => DirRequest::Writeback,
        }
    }
}

/// The directory state for one memory controller's lines.
#[derive(Debug, Default)]
pub struct DirectoryController {
    entries: StableHashMap<u64, DirEntry>,
    /// Three-hop (owner-forwarded) transfers served.
    pub three_hop_transfers: u64,
    /// Invalidation messages sent.
    pub invalidations_sent: u64,
}

impl Clone for DirectoryController {
    fn clone(&self) -> Self {
        DirectoryController {
            entries: self.entries.clone(),
            three_hop_transfers: self.three_hop_transfers,
            invalidations_sent: self.invalidations_sent,
        }
    }

    /// Copies `source` into this directory's existing table allocation.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
        self.three_hop_transfers = source.three_hop_transfers;
        self.invalidations_sent = source.invalidations_sent;
    }
}

impl DirectoryController {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current entry for `line` (all-invalid if untracked).
    pub fn entry(&self, line: LineAddr) -> DirEntry {
        self.entries.get(&line.0).copied().unwrap_or_default()
    }

    /// Number of tracked lines.
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }

    /// Handles `req` from `requester`, updating the directory and
    /// returning the required action. `fills_exclusive` reports back
    /// whether a `Read` was granted an E copy (no other sharers).
    pub fn handle(&mut self, line: LineAddr, requester: u8, req: DirRequest) -> (DirAction, bool) {
        let entry = self.entries.entry(line.0).or_default();
        match req {
            DirRequest::Read => {
                if let Some(owner) = entry.owner {
                    if owner == requester {
                        // Re-request from the owner itself (e.g. after a
                        // partial local downgrade): memory path, keep state.
                        return (DirAction::FromMemory { invalidate: vec![] }, false);
                    }
                    // Owner keeps the line (downgrades E/M -> O at the
                    // cache); requester becomes a sharer. The owner stays
                    // recorded: O still means "memory is stale".
                    entry.sharers |= 1 << requester;
                    entry.sharers |= 1 << owner;
                    self.three_hop_transfers += 1;
                    (
                        DirAction::ForwardToOwner {
                            owner,
                            invalidate: vec![],
                        },
                        false,
                    )
                } else if entry.sharers & !(1 << requester) != 0 {
                    entry.sharers |= 1 << requester;
                    (DirAction::FromMemory { invalidate: vec![] }, false)
                } else {
                    // Nobody else: grant exclusive, requester becomes owner.
                    entry.owner = Some(requester);
                    entry.sharers = 0;
                    (DirAction::FromMemory { invalidate: vec![] }, true)
                }
            }
            DirRequest::ReadExclusive | DirRequest::Upgrade => {
                // The owner is handled via the forward (or appended for
                // upgrades below), never via the plain sharer list.
                let owner = entry.owner;
                let invalidate: Vec<u8> = entry
                    .sharer_ids()
                    .filter(|&s| s != requester && Some(s) != owner)
                    .collect();
                self.invalidations_sent += invalidate.len() as u64;
                let action = match entry.owner {
                    Some(owner) if owner != requester => {
                        self.invalidations_sent += 1;
                        if req == DirRequest::ReadExclusive {
                            self.three_hop_transfers += 1;
                            DirAction::ForwardToOwner { owner, invalidate }
                        } else {
                            let mut inv = invalidate;
                            inv.push(owner);
                            DirAction::InvalidateOnly { invalidate: inv }
                        }
                    }
                    _ => {
                        if req == DirRequest::ReadExclusive {
                            DirAction::FromMemory { invalidate }
                        } else {
                            DirAction::InvalidateOnly { invalidate }
                        }
                    }
                };
                entry.owner = Some(requester);
                entry.sharers = 0;
                (action, true)
            }
            DirRequest::Writeback => {
                if entry.owner == Some(requester) {
                    entry.owner = None;
                }
                // A silent-sharer writeback cannot happen (only dirty
                // lines write back); keep sharers as-is.
                if !entry.is_cached() {
                    self.entries.remove(&line.0);
                }
                (DirAction::FromMemory { invalidate: vec![] }, false)
            }
        }
    }

    /// Node-presence mask over a set of lines: the union of owner and
    /// sharer bits of every tracked entry among `lines`. This is the
    /// value a region-grain directory cache summarizes — bit `n` set
    /// means node `n` *may* hold some line of the region.
    pub fn region_mask(&self, lines: impl Iterator<Item = LineAddr>) -> u64 {
        let mut mask = 0u64;
        for line in lines {
            if let Some(e) = self.entries.get(&line.0) {
                mask |= e.presence();
            }
        }
        mask
    }

    /// Installs `entry` verbatim (dropping it when empty). Bridge for
    /// the model checker and tests, which reconstruct directory state
    /// from an encoded global state; the simulator itself only mutates
    /// entries through [`DirectoryController::handle`].
    pub fn install_entry(&mut self, line: LineAddr, entry: DirEntry) {
        if entry.is_cached() {
            self.entries.insert(line.0, entry);
        } else {
            self.entries.remove(&line.0);
        }
    }

    /// Removes `cache` from `line`'s sharer set (explicit clean-eviction
    /// notification; our system evicts clean lines silently, so this is
    /// exercised only by tests and future protocols).
    pub fn drop_sharer(&mut self, line: LineAddr, cache: u8) {
        if let Some(e) = self.entries.get_mut(&line.0) {
            e.sharers &= !(1 << cache);
            if e.owner == Some(cache) {
                e.owner = None;
            }
            if !e.is_cached() {
                self.entries.remove(&line.0);
            }
        }
    }
}

/// A region-grain cache of directory knowledge at a memory controller
/// (the `DirectoryCgct` mode's home-side filter).
///
/// Each slot summarizes one region as a node-presence mask: the union
/// of owner/sharer bits over the region's line entries. When the mask
/// shows no node but the requester itself, the controller can skip the
/// per-line DRAM directory lookup and start the data access
/// immediately. The cache is maintained **exactly** (recomputed from
/// the line entries after every directory update, see
/// `MemorySystem`), so a hit is authoritative; a conflict eviction
/// merely drops knowledge, forcing the conservative full lookup.
#[derive(Debug, Clone)]
pub struct RegionDirCache {
    sets: usize,
    /// `(region, node-presence mask)` per slot; empty until the first
    /// update, so building a machine does not write `sets` slots.
    slots: Vec<Option<(u64, u64)>>,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (slot empty or holding another region).
    pub misses: u64,
}

impl RegionDirCache {
    /// Creates an empty direct-mapped cache with `sets` slots.
    pub fn new(sets: usize) -> Self {
        let sets = sets.max(1);
        RegionDirCache {
            sets,
            slots: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    fn slot_of(&self, region: RegionAddr) -> usize {
        (region.0 as usize) % self.sets
    }

    /// The cached node-presence mask for `region`, if known.
    pub fn lookup(&mut self, region: RegionAddr) -> Option<u64> {
        let found = self.peek(region);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Installs or refreshes `region`'s mask (evicting any conflicting
    /// region in the same slot).
    pub fn update(&mut self, region: RegionAddr, mask: u64) {
        let slot = self.slot_of(region);
        if self.slots.is_empty() {
            self.slots.resize(self.sets, None);
        }
        self.slots[slot] = Some((region.0, mask));
    }

    /// The stored mask for `region` without touching hit/miss counters
    /// (used by the sanitizer's exactness check).
    pub fn peek(&self, region: RegionAddr) -> Option<u64> {
        match self.slots.get(self.slot_of(region)) {
            Some(&Some((r, mask))) if r == region.0 => Some(mask),
            _ => None,
        }
    }

    /// Every stored `(region, mask)` pair, in slot order (used by the
    /// sanitizer's exactness check).
    pub fn entries(&self) -> impl Iterator<Item = (RegionAddr, u64)> + '_ {
        self.slots
            .iter()
            .filter_map(|s| s.map(|(r, mask)| (RegionAddr(r), mask)))
    }
}

/// The inter-cluster region-grain directory of the `Hierarchical` mode.
///
/// Conceptually one per home memory controller; since regions are
/// statically interleaved across controllers, a single region-indexed
/// map is the union of all homes and byte-identical in behaviour. For
/// each region it tracks how many L2 lines every cluster currently
/// caches — maintained **exactly** from fill/evict/invalidate
/// notifications — so a request need only visit clusters whose count is
/// non-zero. Skipping a zero-count cluster is sound: a cluster with no
/// cached line of the region can neither supply data nor need
/// invalidation at the line grain (region-grain RCA notifications are
/// still delivered machine-wide).
#[derive(Debug, Clone)]
pub struct ClusterDirectory {
    clusters: usize,
    counts: StableHashMap<u64, Vec<u32>>,
}

impl ClusterDirectory {
    /// Creates an empty directory for `clusters` clusters.
    pub fn new(clusters: usize) -> Self {
        ClusterDirectory {
            clusters: clusters.max(1),
            counts: StableHashMap::default(),
        }
    }

    /// Number of clusters tracked.
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Records that a node in `cluster` filled a line of `region`.
    pub fn line_cached(&mut self, region: RegionAddr, cluster: usize) {
        self.counts
            .entry(region.0)
            .or_insert_with(|| vec![0; self.clusters])[cluster] += 1;
    }

    /// Records that a node in `cluster` dropped a line of `region`.
    ///
    /// # Panics
    ///
    /// Panics if the stored count is already zero — that would mean the
    /// exact bookkeeping was broken at the call site.
    pub fn line_uncached(&mut self, region: RegionAddr, cluster: usize) {
        let counts = self
            .counts
            .get_mut(&region.0)
            .unwrap_or_else(|| panic!("line_uncached for untracked region {region}"));
        assert!(
            counts[cluster] > 0,
            "cluster {cluster} count for {region} underflowed"
        );
        counts[cluster] -= 1;
        if counts.iter().all(|&c| c == 0) {
            self.counts.remove(&region.0);
        }
    }

    /// Lines of `region` cached by `cluster`.
    pub fn count(&self, region: RegionAddr, cluster: usize) -> u32 {
        self.counts.get(&region.0).map_or(0, |c| c[cluster])
    }

    /// Bit mask of clusters caching at least one line of `region`.
    pub fn present_mask(&self, region: RegionAddr) -> u64 {
        self.counts.get(&region.0).map_or(0, |c| {
            c.iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .fold(0u64, |m, (i, _)| m | (1 << i))
        })
    }

    /// Number of regions with at least one cached line.
    pub fn tracked_regions(&self) -> usize {
        self.counts.len()
    }
}

impl cgct_sim::Snap for RegionDirCache {
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        // Occupied slots only, ordered by slot index (deterministic by
        // construction).
        let slots: Vec<Json> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.map(|(r, m)| Json::Array(vec![Json::u64(i as u64), Json::u64(r), Json::u64(m)]))
            })
            .collect();
        Json::obj([
            ("sets", Json::u64(self.sets as u64)),
            ("slots", Json::Array(slots)),
            ("hits", Json::u64(self.hits)),
            ("misses", Json::u64(self.misses)),
        ])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::{elements, field, unsnap_field};
        let sets: u64 = unsnap_field(v, "sets")?;
        let mut cache = RegionDirCache::new(sets as usize);
        for slot in elements(field(v, "slots")?)? {
            let parts = elements(slot)?;
            if parts.len() != 3 {
                return Err("region-dir-cache slot must be [index, region, mask]".to_string());
            }
            let idx = u64::unsnap(&parts[0])? as usize;
            if idx >= cache.sets {
                return Err(format!("region-dir-cache slot {idx} out of range"));
            }
            if cache.slots.is_empty() {
                cache.slots.resize(cache.sets, None);
            }
            cache.slots[idx] = Some((u64::unsnap(&parts[1])?, u64::unsnap(&parts[2])?));
        }
        cache.hits = unsnap_field(v, "hits")?;
        cache.misses = unsnap_field(v, "misses")?;
        Ok(cache)
    }
}

impl cgct_sim::Snap for ClusterDirectory {
    /// Regions are serialized sorted so the snapshot is independent of
    /// `HashMap` iteration order.
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        let mut regions: Vec<(&u64, &Vec<u32>)> = self.counts.iter().collect();
        regions.sort_by_key(|(k, _)| **k);
        Json::obj([
            ("clusters", Json::u64(self.clusters as u64)),
            (
                "counts",
                Json::Array(
                    regions
                        .into_iter()
                        .map(|(r, c)| {
                            let mut row = vec![Json::u64(*r)];
                            row.extend(c.iter().map(|&n| Json::u64(n as u64)));
                            Json::Array(row)
                        })
                        .collect(),
                ),
            ),
        ])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::{elements, field, unsnap_field};
        let clusters: u64 = unsnap_field(v, "clusters")?;
        let mut dir = ClusterDirectory::new(clusters as usize);
        for row in elements(field(v, "counts")?)? {
            let parts = elements(row)?;
            if parts.len() != dir.clusters + 1 {
                return Err("cluster-directory row must be [region, count × clusters]".to_string());
            }
            let region = u64::unsnap(&parts[0])?;
            let counts: Result<Vec<u32>, String> = parts[1..]
                .iter()
                .map(|p| u64::unsnap(p).map(|n| n as u32))
                .collect();
            let counts = counts?;
            if counts.iter().all(|&c| c == 0) {
                return Err(format!(
                    "cluster-directory row for region {region} is empty"
                ));
            }
            if dir.counts.insert(region, counts).is_some() {
                return Err(format!(
                    "duplicate cluster-directory row for region {region}"
                ));
            }
        }
        Ok(dir)
    }
}

impl cgct_sim::Snap for DirEntry {
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        Json::obj([
            ("o", self.owner.map(u64::from).snap()),
            ("s", Json::u64(self.sharers)),
        ])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::unsnap_field;
        let owner: Option<u64> = unsnap_field(v, "o")?;
        let owner = owner
            .map(|o| u8::try_from(o).map_err(|_| "directory owner out of range".to_string()))
            .transpose()?;
        Ok(DirEntry {
            owner,
            sharers: unsnap_field(v, "s")?,
        })
    }
}

impl cgct_sim::Snap for DirectoryController {
    /// Entries are serialized sorted by line address so the snapshot is
    /// independent of `HashMap` iteration order.
    fn snap(&self) -> cgct_sim::Json {
        use cgct_sim::Json;
        let mut entries: Vec<(&u64, &DirEntry)> = self.entries.iter().collect();
        entries.sort_by_key(|(k, _)| **k);
        Json::obj([
            (
                "entries",
                Json::Array(
                    entries
                        .into_iter()
                        .map(|(k, e)| Json::Array(vec![Json::u64(*k), e.snap()]))
                        .collect(),
                ),
            ),
            ("three_hop_transfers", Json::u64(self.three_hop_transfers)),
            ("invalidations_sent", Json::u64(self.invalidations_sent)),
        ])
    }
    fn unsnap(v: &cgct_sim::Json) -> Result<Self, String> {
        use cgct_sim::snap::{elements, field, unsnap_field};
        let mut entries = StableHashMap::default();
        for pair in elements(field(v, "entries")?)? {
            let pair = elements(pair)?;
            if pair.len() != 2 {
                return Err("directory entry must be a [line, entry] pair".to_string());
            }
            let key = u64::unsnap(&pair[0])?;
            if entries.insert(key, DirEntry::unsnap(&pair[1])?).is_some() {
                return Err(format!("duplicate directory entry for line {key}"));
            }
        }
        Ok(DirectoryController {
            entries,
            three_hop_transfers: unsnap_field(v, "three_hop_transfers")?,
            invalidations_sent: unsnap_field(v, "invalidations_sent")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(42);

    #[test]
    fn first_read_grants_exclusive() {
        let mut d = DirectoryController::new();
        let (action, exclusive) = d.handle(L, 0, DirRequest::Read);
        assert_eq!(action, DirAction::FromMemory { invalidate: vec![] });
        assert!(exclusive);
        assert_eq!(d.entry(L).owner, Some(0));
    }

    #[test]
    fn read_of_owned_line_is_three_hop() {
        let mut d = DirectoryController::new();
        d.handle(L, 0, DirRequest::Read); // 0 owns E
        let (action, exclusive) = d.handle(L, 1, DirRequest::Read);
        assert_eq!(
            action,
            DirAction::ForwardToOwner {
                owner: 0,
                invalidate: vec![]
            }
        );
        assert!(!exclusive);
        assert_eq!(d.three_hop_transfers, 1);
        // Both are now sharers; 0 remains the (O) owner.
        let e = d.entry(L);
        assert_eq!(e.owner, Some(0));
        assert_eq!(e.sharers & 0b11, 0b11);
    }

    #[test]
    fn read_of_shared_line_comes_from_memory() {
        let mut d = DirectoryController::new();
        d.handle(L, 0, DirRequest::Read);
        d.handle(L, 1, DirRequest::Read); // forwarded; 0 -> O
                                          // Owner 0 writes the line back (evicting its O copy).
        d.handle(L, 0, DirRequest::Writeback);
        let (action, _) = d.handle(L, 2, DirRequest::Read);
        assert_eq!(action, DirAction::FromMemory { invalidate: vec![] });
        assert_eq!(d.three_hop_transfers, 1, "no new forward needed");
    }

    #[test]
    fn rfo_invalidates_sharers_and_takes_ownership() {
        let mut d = DirectoryController::new();
        d.handle(L, 0, DirRequest::Read);
        d.handle(L, 1, DirRequest::Read);
        let (action, exclusive) = d.handle(L, 2, DirRequest::ReadExclusive);
        assert!(exclusive);
        match action {
            DirAction::ForwardToOwner { owner, invalidate } => {
                assert_eq!(owner, 0);
                assert_eq!(invalidate, vec![1]);
            }
            other => panic!("expected forward, got {other:?}"),
        }
        let e = d.entry(L);
        assert_eq!(e.owner, Some(2));
        assert_eq!(e.sharers, 0);
        assert!(d.invalidations_sent >= 2);
    }

    #[test]
    fn upgrade_only_invalidates() {
        let mut d = DirectoryController::new();
        d.handle(L, 0, DirRequest::Read);
        d.handle(L, 1, DirRequest::Read);
        d.handle(L, 0, DirRequest::Writeback); // owner gone, sharers remain
        let (action, _) = d.handle(L, 1, DirRequest::Upgrade);
        match action {
            DirAction::InvalidateOnly { invalidate } => {
                // Sharer 0 may be stale but is invalidated anyway.
                assert!(invalidate.contains(&0));
                assert!(!invalidate.contains(&1));
            }
            other => panic!("expected invalidate-only, got {other:?}"),
        }
        assert_eq!(d.entry(L).owner, Some(1));
    }

    #[test]
    fn writeback_clears_ownership_and_garbage_collects() {
        let mut d = DirectoryController::new();
        d.handle(L, 3, DirRequest::Read);
        assert_eq!(d.tracked_lines(), 1);
        d.handle(L, 3, DirRequest::Writeback);
        assert_eq!(d.entry(L).owner, None);
        assert_eq!(d.tracked_lines(), 0, "empty entries are collected");
    }

    #[test]
    fn drop_sharer_prunes_entries() {
        let mut d = DirectoryController::new();
        d.handle(L, 0, DirRequest::Read);
        d.handle(L, 1, DirRequest::Read);
        d.drop_sharer(L, 1);
        d.drop_sharer(L, 0);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn region_mask_unions_owner_and_sharers() {
        let mut d = DirectoryController::new();
        d.handle(LineAddr(8), 0, DirRequest::Read); // 0 owns line 8
        d.handle(LineAddr(9), 1, DirRequest::Read); // 1 owns line 9
        d.handle(LineAddr(9), 2, DirRequest::Read); // forwarded; 1 -> O, 2 shares
        let mask = d.region_mask((8..16).map(LineAddr));
        assert_eq!(mask, 0b111);
        assert_eq!(d.region_mask((16..24).map(LineAddr)), 0);
    }

    #[test]
    fn install_entry_round_trips_and_collects_empties() {
        let mut d = DirectoryController::new();
        d.install_entry(
            L,
            DirEntry {
                owner: Some(3),
                sharers: 0b1010,
            },
        );
        assert_eq!(d.entry(L).owner, Some(3));
        d.install_entry(L, DirEntry::default());
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn region_dir_cache_hits_misses_and_conflicts() {
        let mut c = RegionDirCache::new(4);
        assert_eq!(c.lookup(RegionAddr(3)), None);
        c.update(RegionAddr(3), 0b01);
        assert_eq!(c.lookup(RegionAddr(3)), Some(0b01));
        assert_eq!(c.peek(RegionAddr(3)), Some(0b01));
        // Region 7 maps to the same slot (7 % 4 == 3): conflict evicts.
        c.update(RegionAddr(7), 0b10);
        assert_eq!(c.lookup(RegionAddr(3)), None);
        assert_eq!(c.lookup(RegionAddr(7)), Some(0b10));
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn region_dir_cache_snapshot_round_trip() {
        use cgct_sim::Snap;
        let mut c = RegionDirCache::new(8);
        c.update(RegionAddr(1), 0b11);
        c.update(RegionAddr(6), 0);
        let _ = c.lookup(RegionAddr(1));
        let json = c.snap();
        let back = RegionDirCache::unsnap(&json).unwrap();
        assert_eq!(back.peek(RegionAddr(1)), Some(0b11));
        assert_eq!(back.peek(RegionAddr(6)), Some(0));
        assert_eq!(back.hits, 1);
        assert_eq!(json.dump(), back.snap().dump());
    }

    #[test]
    fn cluster_directory_counts_and_mask() {
        let r = RegionAddr(5);
        let mut d = ClusterDirectory::new(4);
        d.line_cached(r, 0);
        d.line_cached(r, 0);
        d.line_cached(r, 2);
        assert_eq!(d.count(r, 0), 2);
        assert_eq!(d.count(r, 1), 0);
        assert_eq!(d.present_mask(r), 0b101);
        d.line_uncached(r, 0);
        d.line_uncached(r, 0);
        assert_eq!(d.present_mask(r), 0b100);
        d.line_uncached(r, 2);
        assert_eq!(d.tracked_regions(), 0, "empty rows are collected");
        assert_eq!(d.present_mask(r), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cluster_directory_underflow_panics() {
        let mut d = ClusterDirectory::new(2);
        d.line_cached(RegionAddr(1), 0);
        d.line_uncached(RegionAddr(1), 1);
    }

    #[test]
    fn cluster_directory_snapshot_round_trip() {
        use cgct_sim::Snap;
        let mut d = ClusterDirectory::new(3);
        d.line_cached(RegionAddr(9), 1);
        d.line_cached(RegionAddr(2), 0);
        d.line_cached(RegionAddr(2), 2);
        let json = d.snap();
        let back = ClusterDirectory::unsnap(&json).unwrap();
        assert_eq!(back.count(RegionAddr(9), 1), 1);
        assert_eq!(back.present_mask(RegionAddr(2)), 0b101);
        assert_eq!(json.dump(), back.snap().dump());
    }

    #[test]
    fn upgrade_with_remote_owner_invalidates_the_owner() {
        let mut d = DirectoryController::new();
        d.handle(L, 0, DirRequest::Read); // 0 owns E
                                          // 1 somehow holds a stale S and upgrades (can happen after an O
                                          // owner supplied it data and the directory recorded both).
        let (action, _) = d.handle(L, 1, DirRequest::Upgrade);
        match action {
            DirAction::InvalidateOnly { invalidate } => assert!(invalidate.contains(&0)),
            other => panic!("{other:?}"),
        }
        assert_eq!(d.entry(L).owner, Some(1));
    }
}
