//! End-to-end page shipping with real indexes: replicate a POS-Tree
//! version to another site, update, ship the delta — the Figure 1
//! transmission-saving story over actual structures.

use std::sync::Arc;

use siri::workloads::YcsbConfig;
use siri::{ship, Entry, MemStore, NodeStore, PosParams, PosTree, SharedStore, SiriIndex};

#[test]
fn ship_pos_tree_version_and_delta() {
    let site_a = Arc::new(MemStore::new());
    let site_b = Arc::new(MemStore::new());
    let store_a: SharedStore = site_a.clone();
    let ycsb = YcsbConfig::default();

    let mut index = PosTree::new(store_a, PosParams::default());
    index.batch_insert(ycsb.dataset(3_000)).unwrap();
    let v1 = index.root();

    // Cold replication: everything crosses the wire.
    let children = siri::pos_tree::Node::children_of_page;
    let first = ship::ship_version(site_a.as_ref(), site_b.as_ref(), v1, children).unwrap();
    assert_eq!(first.pages_sent as usize, index.page_set().len());

    // The replica is fully usable at site B.
    let store_b: SharedStore = site_b.clone();
    let replica = PosTree::open(store_b.clone(), PosParams::default(), v1);
    assert_eq!(replica.len().unwrap(), 3_000);
    assert_eq!(replica.get(&ycsb.key(99)).unwrap().unwrap(), ycsb.value(99, 0));

    // Update at site A, ship only the delta.
    let updates: Vec<Entry> = (0..50u64).map(|i| ycsb.entry(i * 31 % 3_000, 1)).collect();
    index.batch_insert(updates).unwrap();
    let v2 = index.root();
    let delta = ship::ship_version(site_a.as_ref(), site_b.as_ref(), v2, children).unwrap();

    assert!(
        delta.pages_sent < first.pages_sent / 3,
        "delta ship ({} pages) must be far smaller than cold ship ({} pages)",
        delta.pages_sent,
        first.pages_sent
    );
    assert!(delta.subtrees_skipped > 0, "shared subtrees must be pruned");

    // Site B can read both versions now.
    let replica_v2 = PosTree::open(store_b, PosParams::default(), v2);
    assert_eq!(replica_v2.get(&ycsb.key(31)).unwrap().unwrap(), ycsb.value(31, 1));
    assert_eq!(replica.get(&ycsb.key(31)).unwrap().unwrap(), ycsb.value(31, 0));

    // Re-shipping v2 is free.
    let again = ship::ship_version(site_a.as_ref(), site_b.as_ref(), v2, children).unwrap();
    assert_eq!(again.pages_sent, 0);
}

/// The generalized transport: receiver-driven `sync_pull` between two
/// sites, exercising the Merkle anti-entropy properties the wire stack
/// relies on — batched round trips, a small-delta byte bound, and resuming
/// after a mid-sync disconnect without re-publishing a half-landed root.
#[test]
fn incremental_anti_entropy_ships_small_deltas_and_resumes() {
    let site_a = Arc::new(MemStore::new());
    let site_b = Arc::new(MemStore::new());
    let children = siri::pos_tree::Node::children_of_page;

    let mut index = PosTree::new(site_a.clone() as SharedStore, PosParams::default());
    let dataset: Vec<Entry> = (0..3_000u32)
        .map(|i| Entry {
            key: format!("key{i:05}").into_bytes().into(),
            value: format!("value-{i}-r0").into_bytes().into(),
        })
        .collect();
    index.batch_insert(dataset).unwrap();
    let v1 = index.root();

    let mut fetch = |hashes: &[siri::Hash]| {
        hashes.iter().map(|h| site_a.try_get(h)).collect::<Result<Vec<_>, _>>()
    };

    // Cold sync pulls the full version, batched.
    let opts = ship::SyncOptions::default();
    let cold = ship::sync_pull(&mut fetch, site_b.as_ref(), v1, children, &opts).unwrap();
    assert!(cold.complete);
    assert_eq!(cold.pages_fetched as usize, index.page_set().len());
    assert!(cold.round_trips < cold.pages_fetched, "fetches must batch");
    assert!(site_b.contains(&v1));

    // Mutate 1% of the records — a contiguous run, so the rewrite stays
    // confined to a few leaf pages plus the spine above them.
    let updates: Vec<Entry> = (60..90u32)
        .map(|i| Entry {
            key: format!("key{i:05}").into_bytes().into(),
            value: format!("value-{i}-r1").into_bytes().into(),
        })
        .collect();
    index.batch_insert(updates).unwrap();
    let v2 = index.root();

    // Disconnect after one page: nothing may land (child-before-parent
    // ordering holds the fetched root back until its subtree is present),
    // so a later walk cannot mistake the half-synced version for complete.
    let cut = ship::SyncOptions { max_pages: Some(1), ..ship::SyncOptions::default() };
    let first = ship::sync_pull(&mut fetch, site_b.as_ref(), v2, children, &cut).unwrap();
    assert!(!first.complete);
    assert!(!site_b.contains(&v2), "an unfinished sync must not publish the new root");

    // The resumed sync prunes every already-complete subtree and finishes.
    let rest = ship::sync_pull(&mut fetch, site_b.as_ref(), v2, children, &opts).unwrap();
    assert!(rest.complete);
    assert!(rest.subtrees_skipped > 0, "shared subtrees must be pruned");
    assert!(site_b.contains(&v2));

    // Acceptance gate: the 1% delta (disconnect overhead included) costs
    // under 10% of the cold transfer.
    let delta_bytes = first.bytes_fetched + rest.bytes_fetched;
    assert!(
        delta_bytes < cold.bytes_fetched / 10,
        "1% delta must ship <10% of a cold sync ({delta_bytes} B vs {} B)",
        cold.bytes_fetched
    );

    // Both versions read back at site B; a re-sync costs one probe.
    let replica = PosTree::open(site_b.clone() as SharedStore, PosParams::default(), v2);
    assert_eq!(replica.get(b"key00071").unwrap().unwrap().as_ref(), b"value-71-r1".as_ref());
    let old = PosTree::open(site_b.clone() as SharedStore, PosParams::default(), v1);
    assert_eq!(old.get(b"key00071").unwrap().unwrap().as_ref(), b"value-71-r0".as_ref());
    let again = ship::sync_pull(&mut fetch, site_b.as_ref(), v2, children, &opts).unwrap();
    assert_eq!(again.pages_fetched, 0);
    assert_eq!(again.subtrees_skipped, 1);
}

#[test]
fn shipped_proofs_verify_at_the_receiver() {
    let site_a = Arc::new(MemStore::new());
    let site_b = Arc::new(MemStore::new());
    let ycsb = YcsbConfig::default();
    let mut index = PosTree::new(site_a.clone() as SharedStore, PosParams::default());
    index.batch_insert(ycsb.dataset(500)).unwrap();
    let root = index.root();
    ship::ship_version(
        site_a.as_ref(),
        site_b.as_ref(),
        root,
        siri::pos_tree::Node::children_of_page,
    )
    .unwrap();
    let replica = PosTree::open(site_b.clone() as SharedStore, PosParams::default(), root);
    let proof = replica.prove(&ycsb.key(123)).unwrap();
    assert!(siri::verify_anchored_membership(&siri::PosProofScheme, root, &ycsb.key(123), &proof)
        .is_valid());
    assert_eq!(site_b.stats().unique_pages, site_a.stats().unique_pages);
}
