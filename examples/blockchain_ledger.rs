//! A miniature blockchain transaction ledger — the paper's Ethereum
//! scenario (§5.1.3): every block gets an index over its transactions,
//! the root digest goes into the block header, any client can verify a
//! transaction against the header chain with a Merkle proof, and explorers
//! page through transactions with a streaming range cursor.
//!
//! Run with: `cargo run --release --example blockchain_ledger`

use std::ops::Bound;

use siri::workloads::eth::EthConfig;
use siri::{
    verify_anchored_membership, Hash, MemStore, MerklePatriciaTrie, MptProofScheme, SiriIndex,
};

struct BlockHeader {
    number: u64,
    tx_root: Hash,
}

fn main() -> siri::Result<()> {
    // Keep a concrete handle for the failure-injection hooks below.
    let mem = std::sync::Arc::new(MemStore::new());
    let store: siri::SharedStore = mem.clone();
    let eth = EthConfig { txs_per_block: 100, seed: 7 };

    // Mine a little chain: index each block's transactions by hash.
    // Ethereum uses an MPT for exactly this.
    let mut chain: Vec<BlockHeader> = Vec::new();
    for number in 0..20u64 {
        let mut tx_trie = MerklePatriciaTrie::new(store.clone());
        tx_trie.batch_insert(eth.block_entries(number))?;
        chain.push(BlockHeader { number, tx_root: tx_trie.root() });
    }
    println!("built {} blocks; tip tx-root {}", chain.len(), chain.last().unwrap().tx_root);

    // A wallet asks: "is my transaction in block 13?" — full node answers
    // with a proof; the wallet verifies against the header only.
    let tx = eth.transaction(13, 42);
    let tx_key = tx.hash_key();
    let full_node_view = MerklePatriciaTrie::open(store.clone(), chain[13].tx_root);
    let proof = full_node_view.prove(&tx_key)?;
    let verdict = verify_anchored_membership(&MptProofScheme, chain[13].tx_root, &tx_key, &proof);
    println!(
        "inclusion proof for tx {}…: {} pages, verified: {}",
        &String::from_utf8_lossy(&tx_key)[..16],
        proof.len(),
        verdict.value().is_some()
    );
    assert_eq!(verdict.value().unwrap().as_ref(), tx.rlp_encode());

    // A block explorer pages through block 13's transactions in hash
    // order: the first page is a bounded cursor, the next starts after the
    // last key seen — no point materializing 100 RLP payloads per request.
    let page: Vec<_> = full_node_view
        .range(Bound::Unbounded, Bound::Unbounded)
        .take(5)
        .collect::<siri::Result<_>>()?;
    let next_page: Vec<_> = full_node_view
        .range(Bound::Excluded(&page.last().unwrap().key[..]), Bound::Unbounded)
        .take(5)
        .collect::<siri::Result<_>>()?;
    println!(
        "explorer paging: txs {}… then {}…",
        &String::from_utf8_lossy(&page[0].key)[..12],
        &String::from_utf8_lossy(&next_page[0].key)[..12],
    );
    assert!(page.last().unwrap().key < next_page[0].key);

    // Storage accounting: identical transactions across blocks (there are
    // none here) and identical subtrees deduplicate automatically.
    let stats = store.stats();
    println!(
        "store: {} unique pages, {:.2} MiB (logical {:.2} MiB)",
        stats.unique_pages,
        stats.unique_bytes as f64 / 1048576.0,
        stats.logical_bytes as f64 / 1048576.0,
    );

    // Tamper with a stored page — here the root page of block 13's trie —
    // and show that a verification sweep notices. Plain lookups trust the
    // store; *proof verification re-hashes every page*, so corruption
    // anywhere on a proven path is caught.
    mem.corrupt_page(&chain[13].tx_root, 3);
    let mut detected = 0;
    for header in &chain {
        let view = MerklePatriciaTrie::open(store.clone(), header.tx_root);
        let key = eth.transaction(header.number, 0).hash_key();
        if let Ok(proof) = view.prove(&key) {
            if !verify_anchored_membership(&MptProofScheme, header.tx_root, &key, &proof).is_valid()
            {
                detected += 1;
            }
        } else {
            detected += 1;
        }
    }
    println!("verification sweep flagged {detected} corrupted block(s) (expected 1)");
    assert_eq!(detected, 1);
    Ok(())
}
