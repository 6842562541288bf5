//! On-disk compatibility: a segment written by the commit *before* the
//! store's append path was rebuilt (frame assembled once in a reused
//! buffer, slice-by-8 checksum) still opens, decodes, and is reproduced
//! byte for byte by re-appending its records — through each of the three
//! public entry points of the one append path.
//!
//! `fixtures/parent_segment.hex` is `seg-00000000.log` as commit 8625a2c
//! wrote it: five records, two tenants and an untagged one, both kinds,
//! one payload full of JSON escapes and multi-byte UTF-8.

use std::net::Ipv4Addr;
use std::path::PathBuf;

use divscrape_detect::TenantId;
use divscrape_store::{AlertStore, RecordKind, StoreConfig};

fn fixture() -> Vec<u8> {
    let hex: String = include_str!("fixtures/parent_segment.hex")
        .split_whitespace()
        .collect();
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "divscrape-segment-compat-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_parent_written_segment_opens_and_re_encodes_byte_for_byte() {
    let bytes = fixture();
    assert_eq!(bytes.len(), 1063);

    let old = temp_dir("old");
    std::fs::create_dir_all(&old).unwrap();
    std::fs::write(old.join("seg-00000000.log"), &bytes).unwrap();
    let mut store = AlertStore::open(&old, StoreConfig::default()).unwrap();
    let stats = store.stats();
    assert_eq!((stats.records, stats.duplicates_skipped), (5, 0));
    assert_eq!(stats.torn_bytes_truncated, 0, "every old checksum holds");
    assert_eq!(stats.bytes, bytes.len() as u64);

    let records = store.records().unwrap();
    let (eu, us) = (TenantId::new("shop-eu"), TenantId::new("shop-us"));
    let keys: Vec<_> = records
        .iter()
        .map(|r| (r.key.tenant.clone(), r.kind, r.key.offset))
        .collect();
    assert_eq!(
        keys,
        vec![
            (Some(eu.clone()), RecordKind::Score, 3),
            (Some(eu), RecordKind::Alert, 3),
            (Some(us.clone()), RecordKind::Alert, 0),
            (Some(us), RecordKind::Score, 0),
            (None, RecordKind::Alert, 41),
        ]
    );
    assert_eq!(
        records[0].key.client,
        (Ipv4Addr::new(198, 51, 100, 7), 0x1122_3344_5566_7788)
    );
    assert_eq!(
        records[2].key.client,
        (Ipv4Addr::new(10, 0, 0, 255), u64::MAX)
    );
    let escaped = std::str::from_utf8(&records[2].payload).unwrap();
    assert!(
        escaped.contains(r#""agent":"weird \\\"agent\\\"\t\u0001 é🛒""#),
        "{escaped}"
    );
    assert_eq!(records[4].payload, br#"{"index":41}"#);
    assert!(store.contains(None, RecordKind::Alert, 41));

    // Re-append into a fresh store: owned, borrowed, batched.
    let new = temp_dir("new");
    let mut copy = AlertStore::open(&new, StoreConfig::default()).unwrap();
    let mut records = records.into_iter();
    assert!(copy.append(records.next().unwrap()).unwrap());
    let second = records.next().unwrap();
    assert!(copy
        .append_ref(&second.key, second.kind, &second.payload)
        .unwrap());
    assert_eq!(copy.append_batch(records).unwrap().appended, 3);
    copy.flush().unwrap();
    assert_eq!(
        std::fs::read(new.join("seg-00000000.log")).unwrap(),
        bytes,
        "the rebuilt append path writes the parent's bytes"
    );

    std::fs::remove_dir_all(&old).unwrap();
    std::fs::remove_dir_all(&new).unwrap();
}
