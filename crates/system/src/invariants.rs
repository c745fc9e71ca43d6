//! The global safety invariants I1–I6, written once for both of their
//! drivers: the live sanitizer ([`crate::MemorySystem::check_invariants`])
//! and the exhaustive model checker (`cgct-verify`).
//!
//! Each invariant carries its paper grounding (Cantin, Lipasti, Smith —
//! ISCA 2005); `DESIGN.md`'s "Invariants & verification" lists the same
//! set. Each is a property of one region, read through a [`RegionView`]:
//! the model checker's global state is one, and the live machine builds
//! one per region. Every message starts with its label (`I1:` … `I6:`).

use crate::directory::DirEntry;
use cgct::{LocalPart, RegionPermission, RegionSnoopResponse, RegionState};
use cgct_cache::{broadcast_unnecessary, LineAddr, LineSnoopResponse, MoesiState, ReqKind};
use std::iter::Peekable;
use ReqKind::{Dcbz, Read, ReadExclusive, ReadShared, Upgrade, Writeback};

/// All request kinds a region permission can rule on (write-backs are
/// checked too: they are trivially safe but must stay so).
const ALL_REQS: [ReqKind; 6] = [Read, ReadShared, ReadExclusive, Upgrade, Dcbz, Writeback];

/// One valid cached copy of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineCopy {
    /// The line.
    pub line: LineAddr,
    /// The node caching it.
    pub node: usize,
    /// Its MOESI state (never `Invalid`).
    pub state: MoesiState,
}

/// One node's valid region entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionEntry {
    /// The node holding the entry.
    pub node: usize,
    /// The region state (never `Invalid`).
    pub state: RegionState,
    /// The entry's cached-line count.
    pub count: u32,
}

/// A read-only view of one region of a machine.
pub trait RegionView {
    /// Every valid cached copy of a line of the region; all copies of
    /// one line are adjacent.
    fn copies(&self) -> impl Iterator<Item = LineCopy> + '_;

    /// Every valid region entry, at most one per node.
    fn entries(&self) -> impl Iterator<Item = RegionEntry> + '_;

    /// Whether the nodes keep region entries at all (I3 demands an
    /// entry for every cached line only then).
    fn tracks_regions(&self) -> bool;

    /// The home's full-map entry for `line`, or `None` on a machine
    /// without a directory.
    fn home(&self, line: LineAddr) -> Option<DirEntry>;

    /// The region-directory cache's node mask for the region, if cached.
    fn dir_cache_mask(&self) -> Option<u64>;

    /// The home entries of every line of the region (read only when
    /// [`RegionView::dir_cache_mask`] is `Some`).
    fn home_entries(&self) -> impl Iterator<Item = DirEntry> + '_;
}

/// Checks I1 through I6, in that order, over every region; returns the
/// first violation.
///
/// # Errors
///
/// Returns a human-readable description of the violated invariant.
pub fn check<V: RegionView>(regions: &[V]) -> Result<(), String> {
    regions.iter().try_for_each(single_writer_multiple_reader)?;
    regions.iter().try_for_each(region_conservatism)?;
    regions.iter().try_for_each(inclusion_and_counts)?;
    regions.iter().try_for_each(snoop_response_consistency)?;
    regions.iter().try_for_each(permission_oracle_soundness)?;
    regions.iter().try_for_each(directory_integrity)
}

/// The line-grain snoop response the copies held by nodes other than
/// `requester` would drive: the fold the oracle rule of Figure 2 reads.
pub fn remote_response(
    requester: usize,
    copies: impl IntoIterator<Item = LineCopy>,
) -> LineSnoopResponse {
    let mut resp = LineSnoopResponse::default();
    for c in copies.into_iter().filter(|c| c.node != requester) {
        resp.merge(LineSnoopResponse {
            shared: true,
            dirty: c.state.is_dirty(),
            exclusive: c.state == MoesiState::Exclusive,
        });
    }
    resp
}

/// The copies `node` holds.
fn copies_of<V: RegionView>(v: &V, node: usize) -> impl Iterator<Item = LineCopy> + '_ {
    v.copies().filter(move |c| c.node == node)
}

/// Splits the next line's copies off `copies`, whose copies of one line
/// are adjacent. The caller must drain the returned run before asking
/// for the next line.
fn next_line<I: Iterator<Item = LineCopy>>(
    copies: &mut Peekable<I>,
) -> Option<(LineAddr, impl Iterator<Item = LineCopy> + '_)> {
    let line = copies.peek()?.line;
    Some((
        line,
        std::iter::from_fn(move || copies.next_if(|c| c.line == line)),
    ))
}

/// I1 — Single writer, multiple readers (MOESI base protocol; the
/// property CGCT must preserve, §1: "without violating coherence").
/// Per line: at most one M/E copy, an M/E copy is the only copy, and at
/// most one dirty owner (M/O) exists.
pub fn single_writer_multiple_reader<V: RegionView>(v: &V) -> Result<(), String> {
    let mut copies = v.copies().peekable();
    while let Some((line, run)) = next_line(&mut copies) {
        let (mut held, mut writable, mut owners) = (0, 0, 0);
        for c in run {
            held += 1;
            writable += usize::from(c.state.can_silently_modify());
            owners += usize::from(c.state.is_dirty());
        }
        let fault = if writable > 1 {
            "multiple M/E holders"
        } else if writable == 1 && held > 1 {
            "M/E alongside other copies"
        } else if owners > 1 {
            "multiple owners"
        } else {
            continue;
        };
        let copies = v.copies().filter(|c| c.line == line);
        let holders: Vec<_> = copies.map(|c| (c.node, c.state)).collect();
        return Err(format!("I1: line {line} has {fault} {holders:?}"));
    }
    Ok(())
}

/// I2 — Region-state conservatism (Table 1's state meanings): a region
/// state must never *under-report* what other processors hold.
/// External Invalid ⇒ no other node has an entry or cached lines;
/// external Clean ⇒ other nodes hold only unmodified (S) lines; local
/// Clean ⇒ the node's own lines are all S.
pub fn region_conservatism<V: RegionView>(v: &V) -> Result<(), String> {
    for a in v.entries() {
        let (node, state) = (a.node, a.state);
        if state.local() == Some(LocalPart::Clean) {
            if let Some(c) = copies_of(v, node).find(|c| c.state != MoesiState::Shared) {
                return Err(format!(
                    "I2: node {node} region {state} (locally clean) holds line {} in {}",
                    c.line, c.state
                ));
            }
        }
        if state.is_exclusive() {
            if let Some(b) = v.entries().find(|b| b.node != node) {
                return Err(format!(
                    "I2: node {node} claims {state} but node {} has entry {}",
                    b.node, b.state
                ));
            }
            if let Some(c) = v.copies().find(|c| c.node != node) {
                return Err(format!(
                    "I2: node {node} claims {state} but node {} caches {} line(s)",
                    c.node,
                    copies_of(v, c.node).count()
                ));
            }
        }
        if state.is_externally_clean() {
            if let Some(c) = v
                .copies()
                .find(|c| c.node != node && c.state != MoesiState::Shared)
            {
                return Err(format!(
                    "I2: node {node} claims {state} (externally clean) but node {} \
                     holds line {} in {}",
                    c.node, c.line, c.state
                ));
            }
        }
    }
    Ok(())
}

/// I3 — RCA/L2 inclusion with exact counts (§3.2): every cached line is
/// covered by a valid region entry, and the entry's line count equals
/// the number of lines actually cached.
pub fn inclusion_and_counts<V: RegionView>(v: &V) -> Result<(), String> {
    let mut covered = 0;
    for e in v.entries() {
        let actual = copies_of(v, e.node).count();
        if e.count as usize != actual {
            return Err(format!(
                "I3: node {} entry counts {} line(s) but {actual} are cached",
                e.node, e.count
            ));
        }
        covered += actual;
    }
    if v.tracks_regions() && covered != v.copies().count() {
        if let Some(c) = v.copies().find(|c| !v.entries().any(|e| e.node == c.node)) {
            return Err(format!(
                "I3: node {} caches line {} with no region entry",
                c.node, c.line
            ));
        }
    }
    Ok(())
}

/// I4 — Snoop-response consistency (§3.4): the contribution a node's
/// region state would put on the bus (via
/// [`RegionSnoopResponse::from_local_state`]) must describe its actual
/// cache contents. Not asserting Region Dirty means holding no M/O/E
/// lines. (Asserting nothing means holding no entry, and I3 already
/// demands an entry for every cached line.)
pub fn snoop_response_consistency<V: RegionView>(v: &V) -> Result<(), String> {
    for RegionEntry { node, state, .. } in v.entries() {
        if RegionSnoopResponse::from_local_state(state).dirty {
            continue;
        }
        if let Some(c) = copies_of(v, node).find(|c| c.state != MoesiState::Shared) {
            return Err(format!(
                "I4: node {node} would answer Region-Clean ({state}) yet holds line {} in {}",
                c.line, c.state
            ));
        }
    }
    Ok(())
}

/// I5 — Permission oracle soundness (§3, Table 2): whenever a region
/// state lets a request skip the broadcast (direct-to-memory or
/// complete-locally), the oracle rule of Figure 2 — evaluated on the
/// *actual* remote line states — must agree the broadcast is
/// unnecessary. This is the paper's central safety claim. A line no
/// other node caches answers nothing, which every rule accepts, so only
/// cached lines are folded, and only when another node caches any.
pub fn permission_oracle_soundness<V: RegionView>(v: &V) -> Result<(), String> {
    for a in v.entries() {
        let permits = ALL_REQS.map(|req| a.state.permission(req) != RegionPermission::Broadcast);
        if !permits.contains(&true) || v.copies().all(|c| c.node == a.node) {
            continue; // nothing permitted, or every remote response is empty
        }
        let mut copies = v.copies().peekable();
        while let Some((line, run)) = next_line(&mut copies) {
            let resp = remote_response(a.node, run);
            if let Some((req, _)) = ALL_REQS
                .into_iter()
                .zip(permits)
                .find(|&(req, permits)| permits && !broadcast_unnecessary(req, resp))
            {
                return Err(format!(
                    "I5: node {} region {} permits {req:?} without broadcast, \
                     but line {line} has remote state {resp:?}",
                    a.node, a.state
                ));
            }
        }
    }
    Ok(())
}

/// I6 — Home-directory integrity (directory machines only; §1.2 and the
/// full-map invariant the lookup bypass rests on). (a) Conservatism:
/// every valid cached copy of a line is listed at the home, as owner or
/// sharer — the dual of I2, at line grain. Stale *extra* bits from
/// silent clean evictions are allowed (they cost only harmless
/// invalidations); missing bits would let the directory skip a cache
/// that holds data. (b) Ownership: an M/O/E holder must be the recorded
/// owner. (c) Region-cache exactness: the region-grain directory cache,
/// once installed, must equal the union of the per-line entries it
/// summarizes — the bypass decision reads this mask, so any drift is a
/// safety hole, not a performance bug.
pub fn directory_integrity<V: RegionView>(v: &V) -> Result<(), String> {
    let mut copies = v.copies().peekable();
    while let Some((line, run)) = next_line(&mut copies) {
        let Some(entry) = v.home(line) else {
            break;
        };
        for LineCopy { node, state, .. } in run {
            if !entry.lists(node) {
                return Err(format!(
                    "I6: node {node} holds line {line} in {state} but the home entry \
                     (owner {:?}, sharers {:#b}) does not list it",
                    entry.owner, entry.sharers
                ));
            }
            let owns = state.can_silently_modify() || state.is_dirty();
            if owns && entry.owner.map(usize::from) != Some(node) {
                return Err(format!(
                    "I6: node {node} holds line {line} in {state} but the home \
                     records owner {:?}",
                    entry.owner
                ));
            }
        }
    }
    if let Some(mask) = v.dir_cache_mask() {
        let union = v.home_entries().fold(0, |u, e| u | e.presence());
        if mask != union {
            return Err(format!(
                "I6: region directory cache mask {mask:#b} != union of \
                 per-line entries {union:#b}"
            ));
        }
    }
    Ok(())
}
