//! The request core: the line, region and home transitions of every
//! permission arm, written once and stepped by two drivers.
//!
//! [`crate::MemorySystem`] steps it over its nodes and wraps each arm in
//! the timing, metrics, tracing and live-only checks; the model checker
//! (`cgct-verify`) steps it over its abstract state and injects its
//! seeded faults in its own [`Store`] impl. The core is timing-free:
//! where the live driver needs a timing point inside an arm, the arm
//! calls a [`Store`] hook that does nothing by default.

use crate::directory::DirAction;
use cgct::{FillKind, RegionPermission, RegionSnoopResponse};
use cgct_cache::{
    requester_next_state, snoop_line, LineAddr, LineSnoopResponse, MoesiState, ReqKind, SnoopAction,
};

/// Merged region-level snoop response across all snoopers: the RCA
/// answer plus the one "cached" bit the scaled and RegionScout trackers
/// give.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergedRegionResp {
    /// The merged RCA response.
    pub rca: RegionSnoopResponse,
    /// Whether any snooper caches the region.
    pub cached_bit: bool,
}

/// The nodes a snoop loop visits, in ascending order: the set bits of a
/// node mask, or every node of a range.
#[derive(Debug, Clone)]
pub enum Visit {
    /// The set bits of a mask.
    Mask(u64),
    /// Every node of a range.
    All(std::ops::Range<usize>),
}

impl Iterator for Visit {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Visit::Mask(mask) => (*mask != 0).then(|| {
                let node = mask.trailing_zeros() as usize;
                *mask &= *mask - 1;
                node
            }),
            Visit::All(nodes) => nodes.next(),
        }
    }
}

/// The machine a store models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// A snooping bus, flat or split into clusters.
    Bus,
    /// A full-map home directory without region tracking.
    Directory,
    /// The home directory with per-node RCAs and a region-grain
    /// directory cache at the home.
    DirectoryCgct,
}

/// Region-grain bookkeeping run at the home (see [`home`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Upkeep {
    /// The flat directory, and every directory write-back.
    None,
    /// A region claim bypassed the lookup: only the requester's entry
    /// changes (other entries, if any, stay conservative).
    DirectFill,
    /// No claim: the outcome is relayed to every node's tracker, and the
    /// home's region cache may still prove the lookup redundant.
    FullExternal,
}

/// The permission arm a request takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// A region claim lets the request finish with no traffic.
    Local,
    /// A point-to-point request to memory, no snoops (bus machines).
    Direct,
    /// The line snoop and region relay of the bus machines.
    Broadcast,
    /// A visit to the home directory.
    Home(Upkeep),
}

/// What an arm did, for the driver's timing and accounting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The snooper that supplied data.
    pub supplier: Option<usize>,
    /// The merged line snoop response.
    pub line_resp: LineSnoopResponse,
    /// The requester's fill state (`None`: no line is filled).
    pub fill: Option<MoesiState>,
    /// The home's action.
    pub home: Option<DirAction>,
    /// Whether the owner a home forward named still held the line.
    pub owner_live: bool,
}

/// The state a request core steps: lines, region trackers and the home.
pub trait Store {
    /// The machine modelled.
    fn machine(&self) -> Machine;
    /// `node`'s state for `line`.
    fn line(&self, node: usize, line: LineAddr) -> MoesiState;
    /// The nodes a line snoop from `requester` reaches; every node that
    /// holds the line among those the snoop can see must be listed.
    fn probes(&mut self, requester: usize) -> Visit;
    /// `node`'s state for `line` as a snoop reads it; `None` when the
    /// lookup is filtered out (the line is then absent there).
    fn snoop_state(&mut self, node: usize, line: LineAddr) -> Option<MoesiState> {
        Some(self.line(node, line))
    }
    /// Moves `node`'s copy of `line` to `next` on `req`'s behalf (a bus
    /// snoop, a home invalidation or a home forward).
    fn snooped(&mut self, node: usize, line: LineAddr, next: MoesiState, req: ReqKind);
    /// Fills `line` into the requester `node`'s cache in `state`.
    fn fill(&mut self, node: usize, line: LineAddr, state: MoesiState);
    /// `node`'s region permission for `req`.
    fn permission(&mut self, node: usize, req: ReqKind) -> RegionPermission;
    /// Completes the request at the requester's region tracker.
    fn local_fill(&mut self, node: usize, fill: FillKind, resp: Option<MergedRegionResp>);
    /// The nodes an external region request must reach: at least every
    /// holder of the region.
    fn region_peers(&mut self, requester: usize) -> Visit;
    /// Delivers an external request to `node`'s tracker.
    fn external(&mut self, node: usize, req: ReqKind, fill_exclusive: bool) -> MergedRegionResp;
    /// The home's per-line transition: its action and whether it
    /// grants exclusivity.
    fn home_handle(&mut self, node: usize, line: LineAddr, req: ReqKind) -> (DirAction, bool);
    /// Refreshes the home's region-grain cache after a home transition.
    fn refresh_home(&mut self);
    /// The home's cached node mask for the request's region, if cached.
    fn home_mask(&mut self) -> Option<u64>;
    /// Hook: the line snoop resolved, before any region self-invalidation.
    fn line_snoop_done(&mut self, _out: &Outcome) {}
    /// Hook: the home handled the request; `bypassed` when no lookup ran.
    fn home_done(&mut self, _action: &DirAction, _bypassed: bool) {}
    /// Hook: the arm's transitions are done; the requester's fill is next.
    fn before_fill(&mut self, _out: &Outcome) {}
}

/// The arm `node`'s `req` takes.
#[inline]
pub fn route<S: Store>(s: &mut S, node: usize, req: ReqKind) -> Arm {
    let machine = s.machine();
    // Write-backs travel point-to-point to the home in every directory
    // machine, before any permission check.
    if machine == Machine::Directory
        || (machine == Machine::DirectoryCgct && req == ReqKind::Writeback)
    {
        return Arm::Home(Upkeep::None);
    }
    match (s.permission(node, req), machine) {
        (RegionPermission::CompleteLocally, _) => Arm::Local,
        (RegionPermission::DirectToMemory, Machine::Bus) => Arm::Direct,
        (RegionPermission::DirectToMemory, _) => Arm::Home(Upkeep::DirectFill),
        (RegionPermission::Broadcast, Machine::Bus) => Arm::Broadcast,
        (RegionPermission::Broadcast, _) => Arm::Home(Upkeep::FullExternal),
    }
}

/// Routes and runs one request.
#[inline]
pub fn request<S: Store>(s: &mut S, node: usize, line: LineAddr, req: ReqKind) -> Outcome {
    match route(s, node, req) {
        Arm::Local => complete_locally(s, node, line, req),
        Arm::Direct => direct(s, node, line, req),
        Arm::Broadcast => broadcast(s, node, line, req),
        Arm::Home(upkeep) => home(s, upkeep, node, line, req),
    }
}

/// The complete-locally arm: the region claim is a valid entry, so
/// nothing is allocated or displaced. On the directory machine the
/// per-line directory still learns of the request (an update off the
/// critical path); the claim guarantees its action names no live copy.
#[inline]
pub fn complete_locally<S: Store>(s: &mut S, node: usize, line: LineAddr, req: ReqKind) -> Outcome {
    let mut out = Outcome::default();
    if s.machine() == Machine::DirectoryCgct {
        let (action, _) = home_step(s, node, line, req);
        s.home_done(&action, true);
    }
    s.local_fill(node, FillKind::Exclusive, None);
    // Upgrades touch the line in the caller, after the request.
    if req == ReqKind::Dcbz {
        out.fill = Some(MoesiState::Modified);
        s.fill(node, line, MoesiState::Modified);
    }
    out
}

/// The bus machines' direct-to-memory arm: no snoops anywhere, and a
/// write-back is fire-and-forget to the recorded controller.
#[inline]
pub fn direct<S: Store>(s: &mut S, node: usize, line: LineAddr, req: ReqKind) -> Outcome {
    if req == ReqKind::Writeback {
        return Outcome::default();
    }
    let fill = match req {
        ReqKind::Read => MoesiState::Exclusive,
        ReqKind::ReadShared => MoesiState::Shared,
        _ => MoesiState::Modified,
    };
    s.local_fill(node, FillKind::from_moesi(fill), None);
    let out = Outcome {
        fill: (req.needs_data() || req == ReqKind::Dcbz).then_some(fill),
        ..Outcome::default()
    };
    finish(s, node, line, out)
}

/// The bus machines' broadcast arm: snoop the probed lines, then relay
/// the region snoop (after the line snoop, so a now-empty region can
/// self-invalidate), then update the requester's region entry
/// (write-backs leave none) and fill.
#[inline]
pub fn broadcast<S: Store>(s: &mut S, node: usize, line: LineAddr, req: ReqKind) -> Outcome {
    let mut out = Outcome::default();
    for other in s.probes(node) {
        if other == node {
            continue;
        }
        let Some(state) = s.snoop_state(other, line) else {
            continue;
        };
        let snoop = snoop_line(state, req);
        out.line_resp.merge(snoop.response);
        if snoop.action == SnoopAction::SupplyData {
            out.supplier = Some(other);
        }
        if snoop.next != state {
            s.snooped(other, line, snoop.next, req);
        }
    }
    out.fill = requester_next_state(req, out.line_resp);
    s.line_snoop_done(&out);
    let fill_exclusive = out.fill.is_some_and(|f| f.can_silently_modify());
    let resp = external_all(s, node, req, fill_exclusive);
    if req != ReqKind::Writeback {
        let fill = out.fill.map_or(FillKind::Shared, FillKind::from_moesi);
        s.local_fill(node, fill, Some(resp));
    }
    finish(s, node, line, out)
}

/// The directory machines' home arm. The home applies its
/// invalidations and its owner forward whether or not the lookup was
/// bypassed: a bypass skips only the lookup's DRAM access. Stale
/// targets (silent clean evictions) hold nothing and are no-ops.
#[inline]
pub fn home<S: Store>(
    s: &mut S,
    upkeep: Upkeep,
    node: usize,
    line: LineAddr,
    req: ReqKind,
) -> Outcome {
    // The bypass reads the region cache before this request's update.
    let bypassed = match upkeep {
        Upkeep::None => false,
        Upkeep::DirectFill => true,
        Upkeep::FullExternal => s.home_mask().is_some_and(|m| m & !(1u64 << node) == 0),
    };
    let (action, exclusive) = home_step(s, node, line, req);
    if req == ReqKind::Writeback {
        return Outcome::default(); // the home only drops the issuer's ownership
    }
    s.home_done(&action, bypassed);
    for &target in action.invalidate() {
        let t = target as usize;
        if t != node && s.line(t, line).is_valid() {
            s.snooped(t, line, MoesiState::Invalid, req);
        }
    }
    let fill = match req {
        // A shared read riding an externally-clean claim must refuse an
        // exclusive grant: other nodes hold CC entries that an
        // unannounced E copy would falsify on its silent upgrade.
        ReqKind::ReadShared if upkeep == Upkeep::DirectFill => MoesiState::Shared,
        ReqKind::Read | ReqKind::ReadShared if exclusive => MoesiState::Exclusive,
        ReqKind::Read | ReqKind::ReadShared => MoesiState::Shared,
        _ => MoesiState::Modified,
    };
    match upkeep {
        Upkeep::None => {}
        Upkeep::DirectFill => s.local_fill(node, FillKind::from_moesi(fill), None),
        Upkeep::FullExternal => {
            let resp = external_all(s, node, req, fill.can_silently_modify());
            s.local_fill(node, FillKind::from_moesi(fill), Some(resp));
        }
    }
    // Region upkeep runs before a three-hop forward reaches the owner: an
    // owner about to lose its only line still answers the region snoop
    // as a holder, so its entry survives, stale but conservative.
    let mut out = Outcome::default();
    if let DirAction::ForwardToOwner { owner, .. } = action {
        let o = owner as usize;
        let state = s.line(o, line);
        out.owner_live = state.is_valid();
        let next = snoop_line(state, req).next;
        if next != state {
            s.snooped(o, line, next, req);
        }
    }
    out.fill = Some(fill);
    out.home = Some(action);
    finish(s, node, line, out)
}

/// The home's transition plus its region-cache refresh.
#[inline]
fn home_step<S: Store>(s: &mut S, node: usize, line: LineAddr, req: ReqKind) -> (DirAction, bool) {
    let handled = s.home_handle(node, line, req);
    s.refresh_home();
    handled
}

/// Relays an external request to every peer's region tracker and
/// merges the answers.
#[inline]
fn external_all<S: Store>(
    s: &mut S,
    node: usize,
    req: ReqKind,
    fill_exclusive: bool,
) -> MergedRegionResp {
    let mut merged = MergedRegionResp::default();
    for other in s.region_peers(node) {
        if other != node {
            let r = s.external(other, req, fill_exclusive);
            merged.rca.merge(r.rca);
            merged.cached_bit |= r.cached_bit;
        }
    }
    merged
}

/// Runs the before-fill hook, then fills the requester's line.
#[inline]
fn finish<S: Store>(s: &mut S, node: usize, line: LineAddr, out: Outcome) -> Outcome {
    s.before_fill(&out);
    if let Some(state) = out.fill {
        s.fill(node, line, state);
    }
    out
}
