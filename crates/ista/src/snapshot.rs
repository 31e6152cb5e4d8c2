//! Versioned binary snapshots of the IsTa prefix tree.
//!
//! The cumulative scheme makes checkpoint/resume natural: the tree after
//! `k` transactions *is* the complete mining state — persisting it and
//! reloading it later continues the run with results identical to an
//! uninterrupted one. The format is deliberately simple and fully
//! validated on load (a truncated, bit-flipped, or hand-forged file comes
//! back as [`FimError::Corrupt`], never as a panic or a silently wrong
//! tree).
//!
//! Format version 2 (current) serializes the Patricia layout — the node
//! table followed by the shared segment item store:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"ISTA"
//!      4     4  format version (little-endian u32, currently 2)
//!      8     4  num_items   — item universe size
//!     12     4  weight      — total processed transaction weight
//!     16     4  node_count  — arena slots, pseudo-root included
//!     20     4  seg_items   — total items across all segments
//!     24  24·n  nodes       — (seg_off, seg_len, supp, raw, sibling,
//!                             children) each
//!          4·s  items       — the segment store, one u32 per item
//!           4  crc32        — IEEE CRC-32 of bytes 4 .. end-4
//! ```
//!
//! Version 1 (the pre-Patricia chain layout: a 16-byte header and
//! `(item, supp, raw, sibling, children)` nodes) is still read — each v1
//! node loads as a length-1 segment, after which ordinary insertion and
//! merging recompress paths incrementally — but no longer written.
//!
//! The writer compacts the tree first, so the snapshot holds exactly the
//! live nodes and a garbage-free item store (compaction is
//! output-invariant; see [`PrefixTree::compact`]). Per-node `step` stamps
//! are transient epoch state and are not persisted; they restart at zero
//! after a reload, which does not affect any reported set or support.

use crate::arena::{PatNode, SegArena, NONE};
use crate::tree::PrefixTree;
use fim_core::{FimError, Item};
use std::io::{Read, Write};

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 4] = *b"ISTA";

/// Current snapshot format version.
pub const VERSION: u32 = 2;

/// Oldest format version [`read_tree`] still accepts.
pub const MIN_VERSION: u32 = 1;

const V1_NODE_FIELDS: usize = 5;
const V2_NODE_FIELDS: usize = 6;

/// Writes `tree` as a versioned snapshot. Compacts the tree first (an
/// output-invariant relocation), so the caller sees no behavioural change
/// beyond the defragmentation.
pub fn write_tree(tree: &mut PrefixTree, w: &mut dyn Write) -> Result<(), FimError> {
    tree.compact();
    let arena = tree.arena();
    let slots = arena.slots();
    let items = arena.items_slice();
    let mut body: Vec<u8> =
        Vec::with_capacity(20 + slots.len() * V2_NODE_FIELDS * 4 + items.len() * 4);
    push_u32(&mut body, VERSION);
    push_u32(&mut body, tree.num_items());
    push_u32(&mut body, tree.transactions_processed());
    push_u32(&mut body, slots.len() as u32);
    push_u32(&mut body, items.len() as u32);
    for n in slots {
        push_u32(&mut body, n.seg_off);
        push_u32(&mut body, n.seg_len);
        push_u32(&mut body, n.supp);
        push_u32(&mut body, n.raw);
        push_u32(&mut body, n.sibling);
        push_u32(&mut body, n.children);
    }
    for &i in items {
        push_u32(&mut body, i);
    }
    w.write_all(&MAGIC)?;
    w.write_all(&body)?;
    w.write_all(&crc32(&body).to_le_bytes())?;
    Ok(())
}

/// Reads and fully validates a snapshot written by [`write_tree`] — the
/// current version 2 or the legacy version 1 chain layout.
pub fn read_tree(r: &mut dyn Read) -> Result<PrefixTree, FimError> {
    let mut magic = [0u8; 4];
    read_exact(r, &mut magic, "magic")?;
    if magic != MAGIC {
        return Err(FimError::Corrupt(format!(
            "bad magic {magic:02x?}, expected {MAGIC:02x?}"
        )));
    }
    let mut version_bytes = [0u8; 4];
    read_exact(r, &mut version_bytes, "version")?;
    match u32::from_le_bytes(version_bytes) {
        1 => read_v1(r, version_bytes),
        2 => read_v2(r, version_bytes),
        v => Err(FimError::Corrupt(format!(
            "unsupported snapshot version {v} (this build reads {MIN_VERSION}..={VERSION})"
        ))),
    }
}

fn read_v2(r: &mut dyn Read, version_bytes: [u8; 4]) -> Result<PrefixTree, FimError> {
    let mut header = [0u8; 16];
    read_exact(r, &mut header, "header")?;
    let num_items = u32_at(&header, 0);
    let weight = u32_at(&header, 4);
    let node_count = u32_at(&header, 8);
    let seg_items = u32_at(&header, 12);
    if node_count == 0 || node_count == NONE {
        return Err(FimError::Corrupt(format!("bad node count {node_count}")));
    }
    let Some(body_len) = (node_count as usize)
        .checked_mul(V2_NODE_FIELDS * 4)
        .and_then(|n| n.checked_add(seg_items as usize * 4))
        .filter(|len| *len <= u32::MAX as usize)
    else {
        return Err(FimError::Corrupt(format!(
            "node count {node_count} / segment size {seg_items} overflow the format"
        )));
    };
    let mut table = vec![0u8; body_len];
    read_exact(r, &mut table, "node and segment tables")?;
    check_crc(r, &[&version_bytes, &header, &table])?;
    let nodes_end = node_count as usize * V2_NODE_FIELDS * 4;
    let mut arena = SegArena::new();
    for (k, slot) in table[..nodes_end]
        .chunks_exact(V2_NODE_FIELDS * 4)
        .enumerate()
    {
        let node = PatNode {
            first: Item::MAX, // derived by `PrefixTree::from_raw_parts`
            seg_off: u32_at(slot, 0),
            seg_len: u32_at(slot, 4),
            supp: u32_at(slot, 8),
            step: 0,
            raw: u32_at(slot, 12),
            sibling: u32_at(slot, 16),
            children: u32_at(slot, 20),
        };
        if u64::from(node.seg_off) + u64::from(node.seg_len) > u64::from(seg_items) {
            return Err(FimError::Corrupt(format!(
                "segment of node {k} out of bounds of the item store"
            )));
        }
        arena.load_node(node);
    }
    for item in table[nodes_end..].chunks_exact(4) {
        arena.load_item(u32_at(item, 0));
    }
    PrefixTree::from_raw_parts(arena, 0, weight, num_items).map_err(FimError::Corrupt)
}

/// Legacy reader: a v1 chain node becomes a length-1 segment. The tree is
/// usable immediately; subsequent insertion and pruning recompress paths
/// through the ordinary split/merge machinery.
fn read_v1(r: &mut dyn Read, version_bytes: [u8; 4]) -> Result<PrefixTree, FimError> {
    let mut header = [0u8; 12];
    read_exact(r, &mut header, "header")?;
    let num_items = u32_at(&header, 0);
    let weight = u32_at(&header, 4);
    let node_count = u32_at(&header, 8);
    if node_count == 0 || node_count == NONE {
        return Err(FimError::Corrupt(format!("bad node count {node_count}")));
    }
    let Some(body_len) = (node_count as usize)
        .checked_mul(V1_NODE_FIELDS * 4)
        .filter(|len| *len <= u32::MAX as usize)
    else {
        return Err(FimError::Corrupt(format!(
            "node count {node_count} overflows the format"
        )));
    };
    let mut nodes = vec![0u8; body_len];
    read_exact(r, &mut nodes, "node table")?;
    check_crc(r, &[&version_bytes, &header, &nodes])?;
    let mut arena = SegArena::new();
    for (k, slot) in nodes.chunks_exact(V1_NODE_FIELDS * 4).enumerate() {
        let item = u32_at(slot, 0);
        let node = PatNode {
            first: Item::MAX, // derived by `PrefixTree::from_raw_parts`
            seg_off: 0,
            seg_len: 0,
            supp: u32_at(slot, 4),
            step: 0,
            raw: u32_at(slot, 8),
            sibling: u32_at(slot, 12),
            children: u32_at(slot, 16),
        };
        if k == 0 {
            // the v1 pseudo-root stores the sentinel pseudo-item
            if item != NONE {
                return Err(FimError::Corrupt(format!(
                    "v1 root holds item {item}, expected the pseudo-item"
                )));
            }
            arena.load_node(node);
        } else {
            arena.load_node(PatNode {
                seg_off: arena.items_len() as u32,
                seg_len: 1,
                ..node
            });
            arena.load_item(item);
        }
    }
    PrefixTree::from_raw_parts(arena, 0, weight, num_items).map_err(FimError::Corrupt)
}

fn check_crc(r: &mut dyn Read, hashed: &[&[u8]]) -> Result<(), FimError> {
    let mut crc_bytes = [0u8; 4];
    read_exact(r, &mut crc_bytes, "crc")?;
    let mut hasher = Crc32::new();
    for part in hashed {
        hasher.update(part);
    }
    let actual = hasher.finish();
    let expected = u32::from_le_bytes(crc_bytes);
    if actual != expected {
        return Err(FimError::Corrupt(format!(
            "crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
        )));
    }
    Ok(())
}

fn read_exact(r: &mut dyn Read, buf: &mut [u8], what: &str) -> Result<(), FimError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FimError::Corrupt(format!("truncated snapshot while reading {what}"))
        } else {
            FimError::Io(e)
        }
    })
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn u32_at(buf: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(buf[offset..offset + 4].try_into().expect("4-byte slice"))
}

/// Incremental IEEE CRC-32 (polynomial `0xEDB88320`), computed bitwise —
/// snapshot I/O is far from any hot path, so a lookup table is not worth
/// its footprint.
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(!0)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u32::from(b);
            for _ in 0..8 {
                let lsb = self.0 & 1;
                self.0 >>= 1;
                if lsb != 0 {
                    self.0 ^= 0xEDB8_8320;
                }
            }
        }
    }

    fn finish(&self) -> u32 {
        !self.0
    }
}

/// One-shot CRC-32 of `bytes` — the checksum the snapshot format embeds,
/// exported so wrapping formats (the named-catalog checkpoint in `fim-io`)
/// can protect their own headers with the same primitive.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fim_core::{Item, ItemSet};

    fn sample_tree() -> PrefixTree {
        let mut t = PrefixTree::new(5);
        for tx in [
            &[0u32, 2, 4][..],
            &[1, 3, 4],
            &[0, 1, 2, 3],
            &[0, 2, 4],
            &[1, 2],
        ] {
            t.add_transaction(tx);
        }
        t
    }

    fn snapshot(tree: &mut PrefixTree) -> Vec<u8> {
        let mut buf = Vec::new();
        write_tree(tree, &mut buf).expect("write to Vec cannot fail");
        buf
    }

    #[test]
    fn crc32_known_answer() {
        // the classic check value of the IEEE polynomial
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let mut t = sample_tree();
        let buf = snapshot(&mut t);
        let r = read_tree(&mut buf.as_slice()).expect("round trip");
        r.validate_invariants();
        assert_eq!(r.num_items(), t.num_items());
        assert_eq!(r.transactions_processed(), t.transactions_processed());
        assert_eq!(r.node_count(), t.node_count());
        assert_eq!(r.memory_stats().seg_items, t.memory_stats().seg_items);
        assert_eq!(r.report(1), t.report(1));
        assert_eq!(r.report(2), t.report(2));
        assert_eq!(r.dump(), t.dump());
        let mut ws = r.weighted_transactions();
        let mut want = t.weighted_transactions();
        ws.sort();
        want.sort();
        assert_eq!(ws, want);
    }

    #[test]
    fn resumed_tree_continues_identically() {
        let more: &[&[Item]] = &[&[1, 2, 3], &[0, 4], &[0, 1, 2, 3, 4]];
        let mut t = sample_tree();
        let buf = snapshot(&mut t);
        let mut resumed = read_tree(&mut buf.as_slice()).expect("round trip");
        for tx in more {
            t.add_transaction(tx);
            resumed.add_transaction(tx);
        }
        resumed.validate_invariants();
        assert_eq!(resumed.report(1), t.report(1));
        assert_eq!(
            resumed.lookup(&ItemSet::from([0, 2, 4])),
            t.lookup(&ItemSet::from([0, 2, 4]))
        );
    }

    #[test]
    fn fragmented_tree_is_compacted_into_the_snapshot() {
        let mut t = sample_tree();
        t.prune(&[0, 0, 0, 0, 0], 3); // scatter slots through the free list
        t.validate_invariants();
        let report_before = t.report(3);
        let buf = snapshot(&mut t);
        let r = read_tree(&mut buf.as_slice()).expect("round trip");
        r.validate_invariants();
        assert_eq!(r.report(3), report_before);
        assert_eq!(r.memory_stats().free_slots, 0);
    }

    #[test]
    fn empty_tree_round_trips() {
        let mut t = PrefixTree::new(3);
        let buf = snapshot(&mut t);
        let r = read_tree(&mut buf.as_slice()).expect("round trip");
        assert_eq!(r.node_count(), 0);
        assert_eq!(r.num_items(), 3);
        assert!(r.report(1).is_empty());
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut t = sample_tree();
        let mut buf = snapshot(&mut t);
        buf[0] = b'X';
        let err = read_tree(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, FimError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn unsupported_version_is_corrupt() {
        let mut t = sample_tree();
        let mut buf = snapshot(&mut t);
        buf[4] = 99;
        let err = read_tree(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn truncation_anywhere_is_corrupt_not_panic() {
        let mut t = sample_tree();
        let buf = snapshot(&mut t);
        for len in 0..buf.len() {
            let err = read_tree(&mut &buf[..len]).unwrap_err();
            assert!(
                matches!(err, FimError::Corrupt(_)),
                "truncation at {len}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let mut t = sample_tree();
        let buf = snapshot(&mut t);
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x01;
            assert!(
                read_tree(&mut bad.as_slice()).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn forged_crc_cannot_smuggle_bad_structure() {
        // rewrite a node's sibling link to point at itself, then fix the
        // CRC so only the structural validation can catch it
        let mut t = sample_tree();
        let mut buf = snapshot(&mut t);
        let first_node = 24 + V2_NODE_FIELDS * 4; // slot 1, after the root
        let sibling_off = first_node + 16;
        buf[sibling_off..sibling_off + 4].copy_from_slice(&1u32.to_le_bytes());
        let body_end = buf.len() - 4;
        let fixed = crc32(&buf[4..body_end]);
        let crc_off = body_end;
        buf[crc_off..crc_off + 4].copy_from_slice(&fixed.to_le_bytes());
        let err = read_tree(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, FimError::Corrupt(_)), "{err}");
    }

    #[test]
    fn forged_crc_cannot_smuggle_out_of_bounds_segment() {
        // point the root's first child at a segment beyond the item store
        let mut t = sample_tree();
        let mut buf = snapshot(&mut t);
        let first_node = 24 + V2_NODE_FIELDS * 4;
        buf[first_node..first_node + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body_end = buf.len() - 4;
        let fixed = crc32(&buf[4..body_end]);
        buf[body_end..body_end + 4].copy_from_slice(&fixed.to_le_bytes());
        let err = read_tree(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("bounds"), "{err}");
    }

    #[test]
    fn zero_node_count_is_corrupt() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        let mut body = Vec::new();
        push_u32(&mut body, VERSION);
        push_u32(&mut body, 3); // num_items
        push_u32(&mut body, 0); // weight
        push_u32(&mut body, 0); // node_count: must be >= 1 for the root
        push_u32(&mut body, 0); // seg_items
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        let err = read_tree(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("node count"), "{err}");
    }

    /// Hand-assembles a version-1 snapshot (the pre-Patricia chain
    /// layout) of the two-transaction database {0,2}, {2}: a root with
    /// one child chain 2 → 0.
    fn v1_snapshot() -> Vec<u8> {
        let mut body = Vec::new();
        push_u32(&mut body, 1); // version
        push_u32(&mut body, 3); // num_items
        push_u32(&mut body, 2); // weight
        push_u32(&mut body, 3); // node_count
        for node in [
            // (item, supp, raw, sibling, children)
            [NONE, 2, 0, NONE, 1], // pseudo-root
            [2, 2, 1, NONE, 2],    // {2} supp 2, terminal of tx {2}
            [0, 1, 1, NONE, NONE], // {2,0} supp 1, terminal of tx {0,2}
        ] {
            for v in node {
                push_u32(&mut body, v);
            }
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&body);
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf
    }

    #[test]
    fn v1_snapshot_still_loads() {
        let buf = v1_snapshot();
        let t = read_tree(&mut buf.as_slice()).expect("v1 load");
        t.validate_invariants();
        assert_eq!(t.num_items(), 3);
        assert_eq!(t.transactions_processed(), 2);
        assert_eq!(t.lookup(&ItemSet::from([2])), Some(2));
        assert_eq!(t.lookup(&ItemSet::from([0, 2])), Some(1));
        // v1 chains load as length-1 segments: 2 physical = 2 conceptual
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.memory_stats().seg_items, 2);
        let mut ws = t.weighted_transactions();
        ws.sort();
        assert_eq!(ws, vec![(vec![0, 2], 1), (vec![2], 1)]);
    }

    #[test]
    fn v1_reload_resumes_and_rewrites_as_v2() {
        let buf = v1_snapshot();
        let mut resumed = read_tree(&mut buf.as_slice()).expect("v1 load");
        // the same database built natively, for comparison
        let mut native = PrefixTree::new(3);
        native.add_transaction(&[0, 2]);
        native.add_transaction(&[2]);
        for tree in [&mut resumed, &mut native] {
            tree.add_transaction(&[0, 1, 2]);
            tree.add_transaction(&[1, 2]);
        }
        resumed.validate_invariants();
        assert_eq!(resumed.report(1), native.report(1));
        // re-snapshotting writes the current version
        let rewritten = snapshot(&mut resumed);
        assert_eq!(u32::from_le_bytes(rewritten[4..8].try_into().unwrap()), 2);
        let back = read_tree(&mut rewritten.as_slice()).expect("v2 round trip");
        assert_eq!(back.report(1), native.report(1));
    }

    #[test]
    fn v1_truncation_and_flips_are_detected() {
        let buf = v1_snapshot();
        for len in 0..buf.len() {
            assert!(
                read_tree(&mut &buf[..len]).is_err(),
                "v1 truncation at {len} went undetected"
            );
        }
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x01;
            assert!(
                read_tree(&mut bad.as_slice()).is_err(),
                "v1 flip at byte {pos} went undetected"
            );
        }
    }
}
