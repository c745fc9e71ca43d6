//! `SetAssocArray` snapshots: the positional format is pinned, and a
//! hostile checkpoint is refused with an error before anything is
//! allocated for it.

use cgct_cache::SetAssocArray;
use cgct_sim::{Json, Snap};

/// Three entries in two of eight sets, one of them refreshed: every
/// untouched way is a positional `null`. Recorded from the layout that
/// wrote every way of every set up front, so the format cannot drift.
#[test]
fn sparse_snapshot_is_positional_and_round_trips() {
    let mut a: SetAssocArray<u32> = SetAssocArray::new(8, 2);
    a.insert_lru(13, 130);
    a.insert_lru(3, 30);
    a.insert_lru(11, 110);
    a.access(13);
    let golden = concat!(
        r#"{"sets":8,"ways":2,"clock":4,"storage":[null,null,null,null,null,null,"#,
        r#"{"t":0,"u":2,"e":30},{"t":1,"u":3,"e":110},null,null,{"t":1,"u":4,"e":130},"#,
        r#"null,null,null,null,null]}"#
    );
    assert_eq!(a.snap().dump(), golden);
    let restored = SetAssocArray::<u32>::unsnap(&Json::parse(golden).unwrap()).unwrap();
    assert_eq!(restored.snap().dump(), golden);
    assert_eq!(restored.len(), 3);
    assert_eq!(restored.get(13), Some(&130));
}

/// Geometries whose way count is huge or overflows `usize` used to be
/// allocated (or multiplied) before the storage length was checked:
/// the first aborted the process, the second panicked or wrapped.
#[test]
fn oversized_geometry_is_an_error_not_an_abort() {
    for text in [
        r#"{"sets": 1099511627776, "ways": 1, "clock": 0, "storage": []}"#,
        r#"{"sets": 4611686018427387904, "ways": 4, "clock": 0, "storage": []}"#,
    ] {
        let v = Json::parse(text).unwrap();
        let err = SetAssocArray::<u32>::unsnap(&v).expect_err(text);
        assert!(err.contains("storage"), "{text}: {err}");
    }
}
