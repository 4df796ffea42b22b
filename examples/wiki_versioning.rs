//! Wikipedia-style document versioning — the paper's §5.1.2 scenario: a
//! corpus of page abstracts evolving over many versions, with history
//! tracking, rollback, page *takedowns* (write-batch deletes), and storage
//! that grows with the *delta*, not the corpus.
//!
//! Run with: `cargo run --release --example wiki_versioning`

use siri::workloads::wiki::WikiConfig;
use siri::{
    verify_anchored_membership, MemStore, PosParams, PosProofScheme, PosTree, SiriIndex,
    VersionStore, WriteBatch,
};

fn main() -> siri::Result<()> {
    let wiki = WikiConfig { pages: 20_000, update_pct: 1, new_pages_per_version: 25, seed: 3 };
    let store = MemStore::new_shared();

    let mut index = PosTree::new(store.clone(), PosParams::default());
    let mut history: VersionStore<PosTree> = VersionStore::new();

    index.batch_insert(wiki.initial_dump())?;
    history.commit("main", &index, "initial dump");
    let baseline_bytes = store.stats().unique_bytes;

    // Sixty days of edits.
    for day in 1..=60u32 {
        index.batch_insert(wiki.version_delta(day))?;
        history.commit("main", &index, format!("day {day} edits"));
    }
    let stats = store.stats();
    println!(
        "61 versions of a {}-page corpus: {:.1} MiB stored ({:.1} MiB baseline, {:.2}x)",
        wiki.pages,
        stats.unique_bytes as f64 / 1048576.0,
        baseline_bytes as f64 / 1048576.0,
        stats.unique_bytes as f64 / baseline_bytes as f64,
    );
    println!("full history: {} commits on 'main'", history.history("main").len());

    // Compare today's corpus against two weeks ago.
    let two_weeks_ago = history.history("main")[14].index.clone();
    let drift = index.diff(&two_weeks_ago)?;
    println!("pages changed vs 14 versions ago: {}", drift.len());

    // A takedown request removes three pages — one atomic write batch,
    // one new version, history untouched.
    let mut takedown = WriteBatch::new();
    for page in [100u64, 101, 102] {
        takedown.delete(wiki.url(page));
    }
    index.commit(takedown)?;
    history.commit("main", &index, "takedown: pages 100-102");
    assert_eq!(index.get(&wiki.url(101))?, None);
    println!("after takedown: {} pages (previous versions still serve them)", index.len()?);

    // Browse one URL neighborhood through the streaming prefix cursor —
    // no corpus-sized allocation.
    let prefix = wiki.url(200);
    let prefix = &prefix[..prefix.len().saturating_sub(2)];
    let nearby = index.scan_prefix(prefix).count();
    println!("pages sharing the URL prefix {:?}: {nearby}", String::from_utf8_lossy(prefix));

    // An editor branches an old version to restore vandalized content.
    history.branch("restore", "main");
    let tag = history.rollback("restore", 10).expect("history deep enough");
    let restored = history.get(tag).unwrap().index.clone();
    println!(
        "branch 'restore' rolled back 10 versions → digest {} ({} pages)",
        restored.root(),
        restored.len()?
    );

    // Immutability means the rollback is non-destructive.
    assert_eq!(history.head("main").unwrap().index.root(), index.root());

    // Proof that a specific revision of a page is in a specific version.
    let url = wiki.url(123);
    let proof = restored.prove(&url)?;
    let verdict = verify_anchored_membership(&PosProofScheme, restored.root(), &url, &proof);
    println!(
        "membership proof for page 123 in the restored version: {} pages, ok={}",
        proof.len(),
        verdict.is_valid()
    );
    Ok(())
}
