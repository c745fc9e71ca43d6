//! Property tests of the region protocol's algebra and the RCA's
//! bookkeeping under arbitrary operation sequences.

#![allow(clippy::disallowed_types)]
// ^ D002 mirror (clippy.toml): test code is exempt by policy

use cgct::{
    external_next_state, local_fill_next_state, FillKind, LocalFill, RcaConfig,
    RegionCoherenceArray, RegionSnoopResponse, RegionState,
};
use cgct_cache::{Geometry, RegionAddr, ReqKind};
use cgct_sim::check::{check, gen_vec};
use cgct_sim::Xoshiro256pp;

fn gen_region_state(g: &mut Xoshiro256pp) -> RegionState {
    *g.choose(&RegionState::ALL).unwrap()
}

fn gen_fill(g: &mut Xoshiro256pp) -> FillKind {
    if g.gen_bool(0.5) {
        FillKind::Shared
    } else {
        FillKind::Exclusive
    }
}

fn gen_resp(g: &mut Xoshiro256pp) -> RegionSnoopResponse {
    RegionSnoopResponse {
        clean: g.gen_bool(0.5),
        dirty: g.gen_bool(0.5),
    }
}

fn gen_req(g: &mut Xoshiro256pp) -> ReqKind {
    *g.choose(&[
        ReqKind::Read,
        ReqKind::ReadShared,
        ReqKind::ReadExclusive,
        ReqKind::Upgrade,
        ReqKind::Writeback,
        ReqKind::Dcbz,
    ])
    .unwrap()
}

#[test]
fn local_fill_always_yields_valid_state() {
    check("region::local_fill_always_yields_valid_state", 64, |g| {
        let s = gen_region_state(g);
        let fill = gen_fill(g);
        let resp = gen_resp(g);
        let next = local_fill_next_state(s, fill, Some(resp));
        assert!(next.is_valid());
        // The external part mirrors the response exactly.
        assert_eq!(next.external(), Some(resp.external_part()));
        // Exclusive fills always leave the local part dirty.
        if fill == FillKind::Exclusive {
            assert_eq!(next.local(), Some(cgct::LocalPart::Dirty));
        }
    });
}

#[test]
fn local_part_is_monotonic_toward_dirty() {
    check("region::local_part_is_monotonic_toward_dirty", 64, |g| {
        let s = gen_region_state(g);
        let fill = gen_fill(g);
        let resp = gen_resp(g);
        let next = local_fill_next_state(s, fill, Some(resp));
        if s.local() == Some(cgct::LocalPart::Dirty) {
            assert_eq!(next.local(), Some(cgct::LocalPart::Dirty));
        }
    });
}

#[test]
fn external_requests_never_grant_exclusivity() {
    check(
        "region::external_requests_never_grant_exclusivity",
        64,
        |g| {
            let s = gen_region_state(g);
            let req = gen_req(g);
            let fill_ex = g.gen_bool(0.5);
            let next = external_next_state(s, req, fill_ex);
            if s.is_valid() && req != ReqKind::Writeback {
                assert!(next.is_valid());
                assert!(
                    !next.is_exclusive(),
                    "{s} + external {req:?} left exclusive {next}"
                );
                // Local part is untouched by external requests.
                assert_eq!(next.local(), s.local());
            }
            if req == ReqKind::Writeback {
                assert_eq!(next, s);
            }
        },
    );
}

#[test]
fn external_part_monotonically_degrades() {
    check("region::external_part_monotonically_degrades", 64, |g| {
        let s = gen_region_state(g);
        let reqs = gen_vec(g, 1..8, |g| (gen_req(g), g.gen_bool(0.5)));
        // Across any sequence of external requests, the external part only
        // moves Invalid -> Clean -> Dirty, never back.
        let mut cur = s;
        let mut prev_ext = cur.external();
        for (req, fill_ex) in reqs {
            cur = external_next_state(cur, req, fill_ex);
            if let (Some(a), Some(b)) = (prev_ext, cur.external()) {
                assert!(b >= a, "external part improved: {a:?} -> {b:?}");
            }
            prev_ext = cur.external();
        }
    });
}

/// RCA line counts track an explicit multiset of cached lines across
/// arbitrary interleavings of fills, line movement, and snoops.
#[test]
fn rca_line_counts_match_reference() {
    check("region::rca_line_counts_match_reference", 64, |g| {
        let ops = gen_vec(g, 1..300, |g| {
            (g.gen_range(0u8..4), g.gen_range(0u64..16), g.gen_bool(0.5))
        });
        let geometry = Geometry::new(64, 512);
        let mut rca = RegionCoherenceArray::new(RcaConfig {
            sets: 16,
            ways: 2,
            geometry,
            self_invalidation: true,
            favor_empty_replacement: true,
        });
        let mut counts: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for (op, region_id, flag) in ops {
            let region = RegionAddr(region_id);
            match op {
                // Local fill (broadcast): allocate/refresh the entry.
                0 => {
                    let resp = RegionSnoopResponse {
                        clean: flag,
                        dirty: !flag,
                    };
                    let had_entry = rca.entry(region).is_some();
                    let outcome = rca.local_fill(
                        region,
                        if flag {
                            FillKind::Shared
                        } else {
                            FillKind::Exclusive
                        },
                        Some(resp),
                        0,
                    );
                    // An allocation is reported exactly when the region
                    // had no entry.
                    assert_eq!(matches!(outcome, LocalFill::Allocated(_)), !had_entry);
                    if let Some(ev) = outcome.eviction() {
                        // Displaced region: the caller flushes its lines.
                        counts.remove(&ev.region.0);
                    }
                }
                // Cache a line (only legal with a valid entry and room).
                1 => {
                    if rca.entry(region).is_some()
                        && *counts.get(&region_id).unwrap_or(&0)
                            < geometry.lines_per_region() as u32
                    {
                        rca.line_cached(region);
                        *counts.entry(region_id).or_insert(0) += 1;
                    }
                }
                // Evict a line.
                2 => {
                    if rca.entry(region).is_some() && *counts.get(&region_id).unwrap_or(&0) > 0 {
                        rca.line_uncached(region);
                        *counts.entry(region_id).or_insert(1) -= 1;
                    }
                }
                // External request (may self-invalidate empty regions).
                _ => {
                    let had_entry = rca.entry(region).is_some();
                    let was_empty = *counts.get(&region_id).unwrap_or(&0) == 0;
                    let _ = rca.external_request(region, ReqKind::Read, flag);
                    if had_entry && was_empty {
                        assert!(
                            rca.entry(region).is_none(),
                            "empty region must self-invalidate"
                        );
                        counts.remove(&region_id);
                    }
                }
            }
            // Every tracked count matches the model.
            for (region, entry) in rca.iter() {
                assert_eq!(
                    entry.line_count,
                    *counts.get(&region.0).unwrap_or(&0),
                    "region {region} count mismatch"
                );
            }
        }
    });
}
