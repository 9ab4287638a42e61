//! Primitive compact-frame codecs for the PIM-trie protocol messages
//! (`WireCodec::Compact`, `WIRE_FORMAT.md` §"Frames and groups").
//!
//! The simulator meters whatever [`pim_sim::Wire::encode_frame`] emits;
//! by default that is an *opaque frame* no smaller than the plain word
//! count. Every CPU↔PIM message replaces the default with a
//! field-by-field bit-level encoding: varints for ids and lengths,
//! per-stream delta coding for sequence numbers, slots, tags and depths,
//! bit-packed edge labels, and shared-prefix elimination for the
//! root-string remainder/`s_last` labels that repeat across a round's
//! messages (`WIRE_FORMAT.md` §"Delta streams", §"Labels",
//! §"Shared-prefix elimination").
//!
//! Which fields a message has, in which order and with which of those
//! codings, is written once, in the `schema.rs` field table beside this
//! file, which generates the [`Encode`]/[`Decode`] impls of `Req`, `Resp`
//! and their payload structs. This module holds what that table's fields
//! resolve to: the two traits and the codecs that hide a format —
//! integers, `bool`, `Option`, `Vec`, tuples, hash words, bit-string
//! labels, block/meta addresses and the structural trie frame.
//!
//! Two traits split the work:
//!
//! * [`Encode`] appends a value's fields to a [`pim_sim::Enc`] — this is
//!   the run-time path: the simulator calls it (via `encode_frame`)
//!   once per message when the compact codec is negotiated, purely to
//!   *meter* the encoded size and index fault words. Receivers never
//!   decode — module handlers keep operating on the shipped Rust
//!   values.
//! * [`Decode`] is the mirror. It exists to *prove losslessness*: the
//!   round-trip tests in this module encode a message group, decode it
//!   back, and check semantic equality (via the wire-guard fingerprint)
//!   and re-encode identity. If `Decode` can reconstruct the message,
//!   the metered size is an honest size for the information actually
//!   shipped.
//!
//! Paper: PIM-tree (Kang et al.) charges every bound in words moved;
//! this module is where the reproduction's words/op floor is attacked
//! without changing any algorithm.

use crate::refs::{BitsMsg, BlockRef, MetaRef, TrieMsg};
use bitstr::hash::HashVal;
use bitstr::BitStr;
use pim_sim::{codec_stream as stream, CodecError, Dec, Enc};
use trie_core::{NodeId, Trie};

/// Types with a structural compact-codec field encoding.
///
/// `enc` appends this value's fields to the group encoder; it is called
/// between the simulator's `begin_frame`/`end_frame` when this value is
/// (part of) a round message and `WireCodec::Compact` is negotiated.
/// Implementations must be a pure function of the value and the
/// encoder's stream state — encoded sizes are part of the simulation's
/// deterministic counters.
pub trait Encode {
    /// Append this value's fields to the encoder.
    fn enc(&self, e: &mut Enc);
}

/// Mirror of [`Encode`]: reconstruct the value from the encoded stream.
///
/// Run-time receivers never call this (the simulator ships Rust values
/// and uses the codec only for metering); it exists so tests can prove
/// every frame is lossless. Decoding trusts the encoder: structural
/// codecs (e.g. the [`Trie`] schema) may panic on semantically
/// malformed input rather than report [`CodecError`].
pub trait Decode: Sized {
    /// Read back a value encoded by [`Encode::enc`].
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

macro_rules! codec_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn enc(&self, e: &mut Enc) {
                e.put_varint(*self as u64);
            }
        }
        impl Decode for $t {
            fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(d.get_varint()? as $t)
            }
        }
    )*};
}

codec_int!(u8, u16, u32, u64, usize);

impl Encode for i64 {
    fn enc(&self, e: &mut Enc) {
        e.put_signed(*self);
    }
}

impl Decode for i64 {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.get_signed()
    }
}

impl Encode for bool {
    fn enc(&self, e: &mut Enc) {
        e.put_bits(*self as u64, 1);
    }
}

impl Decode for bool {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(d.get_bits(1)? == 1)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.put_bits(0, 1),
            Some(v) => {
                e.put_bits(1, 1);
                v.enc(e);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(if d.get_bits(1)? == 1 {
            Some(T::dec(d)?)
        } else {
            None
        })
    }
}

impl<T: Encode> Encode for Box<T> {
    fn enc(&self, e: &mut Enc) {
        (**self).enc(e);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        T::dec(d).map(Box::new)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.len() as u64);
        for v in self {
            v.enc(e);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.get_varint()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::dec(d)?);
        }
        Ok(out)
    }
}

macro_rules! codec_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn enc(&self, e: &mut Enc) {
                $(self.$idx.enc(e);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(($($name::dec(d)?,)+))
            }
        }
    };
}

codec_tuple!(A: 0, B: 1);
codec_tuple!(A: 0, B: 1, C: 2);
codec_tuple!(A: 0, B: 1, C: 2, D: 3);
codec_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl Encode for HashVal {
    // hashes are incompressible: one raw word (`WIRE_FORMAT.md` §"Raw
    // words")
    fn enc(&self, e: &mut Enc) {
        e.put_word(self.0);
    }
}

impl Decode for HashVal {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(HashVal(d.get_word()?))
    }
}

/// Rebuild a `BitStr` from an MSB-first label as the decoder returns it.
fn bits_from_label(words: &[u64], len: u64) -> BitStr {
    let mut s = BitStr::with_capacity(len as usize);
    let mut i = 0u64;
    while i < len {
        let take = (len - i).min(64);
        s.push_chunk(words[(i / 64) as usize], take as usize);
        i += take;
    }
    s
}

impl Encode for BitStr {
    fn enc(&self, e: &mut Enc) {
        e.put_label(self.words(), self.len() as u64);
    }
}

impl Decode for BitStr {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let (words, len) = d.get_label()?;
        Ok(bits_from_label(&words, len))
    }
}

pub(crate) fn put_shared(e: &mut Enc, s: usize, b: &BitStr) {
    e.put_label_shared(s, b.words(), b.len() as u64);
}

pub(crate) fn get_shared(d: &mut Dec<'_>, s: usize) -> Result<BitStr, CodecError> {
    let (words, len) = d.get_label_shared(s)?;
    Ok(bits_from_label(&words, len))
}

impl Encode for BlockRef {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.module as u64);
        e.put_delta(stream::BLOCK_SLOT, self.slot as u64);
    }
}

impl Decode for BlockRef {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BlockRef {
            module: d.get_varint()? as u32,
            slot: d.get_delta(stream::BLOCK_SLOT)? as u32,
        })
    }
}

impl Encode for MetaRef {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.module as u64);
        e.put_delta(stream::META_SLOT, self.slot as u64);
    }
}

impl Decode for MetaRef {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(MetaRef {
            module: d.get_varint()? as u32,
            slot: d.get_delta(stream::META_SLOT)? as u32,
        })
    }
}

// Trie frame schema (`WIRE_FORMAT.md` §"Frames"): header (n_keys,
// id_bound, n_live), then one record per *live* node in ascending
// arena order — delta-coded id, optional parent id, bit-packed edge
// label, optional value, depth. Children are never shipped: the trie
// invariant (a child hangs off its parent by its edge's first bit)
// lets `Trie::from_arena_parts` recompute them, which is where the
// codec beats the plain ~4–5 words/node layout.
impl Encode for Trie {
    fn enc(&self, e: &mut Enc) {
        e.put_varint(self.n_keys() as u64);
        e.put_varint(self.id_bound() as u64);
        e.put_varint(self.n_nodes() as u64);
        for id in self.node_ids() {
            let n = self.node(id);
            e.put_delta(stream::NODE_ID, id.0 as u64);
            match n.parent {
                None => e.put_bits(0, 1),
                Some(p) => {
                    e.put_bits(1, 1);
                    e.put_varint(p.0 as u64);
                }
            }
            n.edge.enc(e);
            match n.value {
                None => e.put_bits(0, 1),
                Some(v) => {
                    e.put_bits(1, 1);
                    // +1 with wraparound: the mirror sentinel u64::MAX
                    // becomes 0 and costs one varint byte instead of ten
                    e.put_varint(v.wrapping_add(1));
                }
            }
            e.put_varint(n.depth as u64);
        }
    }
}

impl Decode for Trie {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n_keys = d.get_varint()? as usize;
        let id_bound = d.get_varint()? as usize;
        let n_live = d.get_varint()? as usize;
        let mut nodes = Vec::with_capacity(n_live.min(1 << 20));
        for _ in 0..n_live {
            let id = NodeId(d.get_delta(stream::NODE_ID)? as u32);
            let parent = if d.get_bits(1)? == 1 {
                Some(NodeId(d.get_varint()? as u32))
            } else {
                None
            };
            let edge = BitStr::dec(d)?;
            let value = if d.get_bits(1)? == 1 {
                Some(d.get_varint()?.wrapping_sub(1))
            } else {
                None
            };
            let depth = d.get_varint()? as u32;
            nodes.push((id, parent, edge, value, depth));
        }
        Ok(Trie::from_arena_parts(id_bound, n_keys, nodes))
    }
}

impl Encode for TrieMsg {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
    }
}

impl Decode for TrieMsg {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(TrieMsg(Trie::dec(d)?))
    }
}

impl Encode for BitsMsg {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
    }
}

impl Decode for BitsMsg {
    fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BitsMsg(BitStr::dec(d)?))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hvm::QueryPiece;
    use crate::module::{
        BlockDataOut, BlockNodeResult, DescendOut, EntrySummary, GraftMsg, MetaChildInfo,
        MetaFullNode, MetaFullOut, NewMetaChild, NewMetaNode, PutBlockMsg, PutMetaMsg, Req, Resp,
        RootMatch,
    };
    use crate::wire_guard::seal_crc;
    use pim_sim::Wire;
    use proptest::prelude::*;

    fn bits(s: &str) -> BitStr {
        BitStr::from_bits(s.chars().map(|c| c == '1'))
    }

    fn sample_trie(keys: &[&str]) -> Trie {
        let mut t = Trie::new();
        for k in keys {
            t.insert(&bits(k), k.len() as u64);
        }
        t
    }

    fn sample_piece() -> QueryPiece {
        let trie = sample_trie(&["0001101", "0001110", "0100000", "0111111"]);
        let tags = (0..trie.id_bound() as u32).collect();
        QueryPiece {
            trie,
            tags,
            root_depth: 137,
            root_pre_hash: HashVal(0xfeed_f00d_dead_beef),
            root_rem: bits("01101"),
        }
    }

    /// Encode a group, decode it in order, check semantic equality (via
    /// the wire-guard fingerprint) and re-encode identity. Returns each
    /// message's Plain `wire_words()` and its Compact frame length in
    /// bits (before padding).
    fn roundtrip_group<T>(msgs: &[T]) -> Vec<(u64, u64)>
    where
        T: Wire + Decode + crate::wire_guard::Fingerprint,
    {
        let mut enc = Enc::new();
        let frame_words: Vec<u64> = msgs
            .iter()
            .map(|m| {
                enc.begin_frame();
                m.encode_frame(&mut enc);
                enc.end_frame()
            })
            .collect();
        assert_eq!(frame_words.iter().sum::<u64>(), enc.total_words());
        let mut dec = Dec::new(enc.words());
        let mut out = Vec::with_capacity(msgs.len());
        let mut sizes = Vec::with_capacity(msgs.len());
        for m in msgs {
            dec.begin_frame();
            let start = dec.bit_pos();
            out.push(T::dec(&mut dec).expect("decode"));
            sizes.push((m.wire_words(), dec.bit_pos() - start));
            dec.end_frame().expect("frame padding");
        }
        for (a, b) in msgs.iter().zip(&out) {
            assert_eq!(
                seal_crc(0, 0, 0, a),
                seal_crc(0, 0, 0, b),
                "decoded message is semantically different"
            );
        }
        let mut enc2 = Enc::new();
        for m in &out {
            enc2.begin_frame();
            m.encode_frame(&mut enc2);
            enc2.end_frame();
        }
        assert_eq!(enc.words(), enc2.words(), "re-encode differs");
        sizes
    }

    fn bref(module: u32, slot: u32) -> BlockRef {
        BlockRef { module, slot }
    }

    fn mref(module: u32, slot: u32) -> MetaRef {
        MetaRef { module, slot }
    }

    #[test]
    fn trie_roundtrips_structurally() {
        let mut t = sample_trie(&["00011010", "00011011", "01000000", "11111111"]);
        t.insert(&bits("0100000011"), u64::MAX); // mirror-style sentinel value
        t.delete(bits("11111111").as_slice());
        let mut enc = Enc::new();
        t.enc(&mut enc);
        let mut dec = Dec::new(enc.words());
        let back = Trie::dec(&mut dec).unwrap();
        assert_eq!(back.n_keys(), t.n_keys());
        assert_eq!(back.n_nodes(), t.n_nodes());
        assert_eq!(back.id_bound(), t.id_bound());
        assert_eq!(back.items(), t.items());
        back.check_invariants(true);
    }

    fn new_meta_node() -> NewMetaNode {
        NewMetaNode {
            block: bref(2, 4),
            depth: 96,
            hash: HashVal(21),
            pre_hash: HashVal(22),
            rem: BitsMsg(bits("110")),
            s_last: BitsMsg(bits("1101")),
        }
    }

    fn put_meta_msg() -> PutMetaMsg {
        PutMetaMsg {
            nodes: vec![new_meta_node()],
            root_idx: 0,
            parent: None,
            children: vec![NewMetaChild {
                mref: mref(1, 2),
                under_node: 0,
                root_block: bref(1, 3),
                depth: 128,
                pre_hash: HashVal(31),
                rem: BitsMsg(bits("1100")),
                s_last: BitsMsg(bits("11011")),
            }],
            parents: vec![None],
        }
    }

    /// One sample of every `Req` variant, in tag order.
    pub(crate) fn req_samples() -> Vec<Req> {
        let piece = sample_piece();
        let subtree = TrieMsg(sample_trie(&["010", "011"]));
        vec![
            Req::MatchMeta {
                slot: 4,
                piece: piece.clone(),
            },
            Req::MatchBlock {
                slot: 9,
                piece,
                values: true,
            },
            Req::FetchMeta { slot: 2 },
            Req::FetchBlock { slot: 3 },
            Req::GraftMany {
                slot: 5,
                grafts: vec![
                    GraftMsg {
                        anchor_node: 1,
                        anchor_off: 0,
                        subtree: subtree.clone(),
                    },
                    GraftMsg {
                        anchor_node: 2,
                        anchor_off: 3,
                        subtree: subtree.clone(),
                    },
                ],
            },
            Req::ReadKey {
                slot: 1,
                node: 7,
                depth: 140,
            },
            Req::DeleteKeys {
                slot: 1,
                nodes: vec![8, 12],
                depths: vec![141, 143],
            },
            Req::MergeChild {
                slot: 2,
                child: bref(1, 9),
                subtree: subtree.clone(),
            },
            Req::ReplaceBlock {
                slot: 2,
                trie: subtree.clone(),
                mirrors: vec![(3, bref(0, 1)), (5, bref(2, 2))],
            },
            Req::RemoveMetaChild {
                slot: 0,
                mref: mref(3, 1),
            },
            Req::PutBlock {
                slot: 3,
                msg: Box::new(PutBlockMsg {
                    trie: subtree,
                    root_depth: 64,
                    root_hash: HashVal(11),
                    s_last: BitsMsg(bits("0011")),
                    pre_hash: HashVal(12),
                    rem: BitsMsg(bits("01")),
                    parent: Some(bref(0, 0)),
                    mirrors: vec![(1, bref(1, 1))],
                    meta: Some((mref(1, 4), 2)),
                }),
            },
            Req::PutMeta {
                slot: 6,
                msg: put_meta_msg(),
            },
            Req::ReplaceMeta {
                slot: 7,
                msg: put_meta_msg(),
            },
            Req::FetchMetaFull { slot: 6 },
            Req::DropBlock { slot: 4 },
            Req::DropMeta { slot: 5 },
            Req::SetParent {
                slot: 1,
                parent: None,
            },
            Req::SetBlockMeta {
                slot: 2,
                meta: mref(1, 4),
                meta_slot: 3,
            },
            Req::AddMetaNodes {
                slot: 2,
                parent_node: 1,
                nodes: vec![new_meta_node()],
                parents: vec![Some(0), None],
                node_slots: vec![4, 3],
                relink: vec![(bref(2, 5), 4)],
            },
            Req::RemoveMetaNode { slot: 2, node: 5 },
            Req::SetMetaParent {
                slot: 3,
                parent: Some(mref(0, 2)),
            },
            Req::FetchSubtree {
                slot: 8,
                node: 3,
                off: 2,
                meta: true,
            },
            Req::DescendBlock {
                slot: 6,
                bits: BitsMsg(bits("0110100111")),
            },
            Req::ResetModule,
            Req::ListBlocks {
                slot: 3,
                under: Some(4),
                roots: vec![bref(2, 5), bref(2, 9)],
            },
        ]
    }

    /// One sample of every `Resp` variant, in tag order (`BlockVitals`
    /// twice: without and with an image; `Value` twice: `Some` and
    /// `None`).
    pub(crate) fn resp_samples() -> Vec<Resp> {
        vec![
            Resp::Matches(vec![
                RootMatch {
                    qt_below: 4,
                    depth: 100,
                    block: bref(0, 1),
                },
                RootMatch {
                    qt_below: 6,
                    depth: 164,
                    block: bref(0, 2),
                },
            ]),
            Resp::BlockResults {
                results: vec![BlockNodeResult {
                    tag: 7,
                    depth: 170,
                    anchor_node: 3,
                    anchor_off: 2,
                    at_mirror: false,
                    redirect: Some(bref(3, 0)),
                }],
                collision: true,
                values: Some(vec![(7, 1234)]),
            },
            Resp::MetaSummary {
                entries: vec![EntrySummary {
                    depth: 64,
                    pre_hash: HashVal(9),
                    rem: bits("0101"),
                    s_last: bits("01010101"),
                    target: bref(1, 2),
                }],
            },
            Resp::BlockData(BlockDataOut {
                trie: TrieMsg(sample_trie(&["0001", "0010"])),
                root_depth: 192,
                root_hash: HashVal(51),
                s_last: BitsMsg(bits("0111")),
                pre_hash: HashVal(52),
                rem: BitsMsg(bits("011")),
                parent: None,
                mirrors: vec![(2, bref(1, 4))],
                meta: Some((mref(3, 3), 5)),
            }),
            Resp::MetaFull(MetaFullOut {
                nodes: vec![MetaFullNode {
                    slot: 0,
                    block: bref(0, 3),
                    parent: None,
                    depth: 96,
                    hash: HashVal(61),
                    pre_hash: HashVal(62),
                    rem: bits("0110"),
                    s_last: bits("011011"),
                }],
                root_node: 0,
                parent: Some(mref(1, 5)),
                children: vec![(
                    MetaChildInfo {
                        mref: mref(2, 6),
                        under_node: 0,
                        entry_slot: 4,
                        root_block: bref(2, 7),
                    },
                    128,
                    HashVal(63),
                    bits("1"),
                    bits("1111"),
                )],
            }),
            Resp::BlockVitals {
                weight: 900,
                keys: 31,
                children: 2,
                keys_delta: -3,
                collision: false,
                image: None,
            },
            Resp::BlockVitals {
                weight: 9,
                keys: 2,
                children: 0,
                keys_delta: -1,
                collision: false,
                image: Some(Box::new(BlockDataOut {
                    trie: TrieMsg(sample_trie(&["0001", "0010"])),
                    root_depth: 192,
                    root_hash: HashVal(51),
                    s_last: BitsMsg(bits("0111")),
                    pre_hash: HashVal(52),
                    rem: BitsMsg(bits("011")),
                    parent: Some(bref(1, 4)),
                    mirrors: Vec::new(),
                    meta: Some((mref(3, 3), 5)),
                })),
            },
            Resp::Placed { count: 44 },
            Resp::MetaVitals {
                nodes: 17,
                parent: None,
            },
            Resp::Subtree {
                trie: TrieMsg(sample_trie(&["10", "11"])),
                children: vec![(1, bref(0, 9))],
                depth: 77,
                meta: Some((mref(2, 5), 3)),
            },
            Resp::Descend(DescendOut {
                consumed: 13,
                next: Some(bref(1, 6)),
                anchor_node: 2,
                anchor_off: 1,
            }),
            Resp::Value(Some(1234)),
            Resp::Value(None),
            Resp::Ok,
            Resp::CorruptReq,
            Resp::Rebooted,
            Resp::SlotTaken { slot: 12 },
            Resp::Listed {
                blocks: vec![bref(0, 3), bref(2, 1), bref(2, 4)],
                metas: vec![(mref(1, 6), bref(1, 2))],
            },
            Resp::BadSlot { slot: 7 },
            Resp::Deferred,
        ]
    }

    /// Plain `wire_words()` and Compact frame bits of `req_samples()` as
    /// one group, captured from the hand-written encoders this schema
    /// replaced: pins byte-identity per message. `MatchMeta` opens the
    /// group, so its frame carries the piece's streams undelta'd (529
    /// bits; 516 as `MatchBlock`, which follows it with the same piece).
    /// Re-captured when the host began choosing every slot: `PutBlock`
    /// gained its slot and meta back-pointer (27 → 30 words), `PutMeta`
    /// its slot (18 → 19), `AddMetaNodes` one node slot per node (11 →
    /// 13), and `SetMirror` (tag 18) is retired; every other message
    /// keeps its words, and its bits wherever its streams start where
    /// they did. Re-captured when SubtreeQuery began listing its blocks
    /// from the meta-blocks: `FetchSubtree` gained the one-bit `meta` flag
    /// (32 → 33 bits, words unchanged) and `ListBlocks` (tag 33: slot
    /// word, then the 11-bit prefix as a label, 3 words) is new.
    /// Re-captured when point lookups began reading values in block
    /// matching: `MatchBlock` gained the one-bit `values` flag (516 → 517
    /// bits, words unchanged). Re-captured when meta links began following
    /// the block tree: `AddMetaNodes` gained its `relink` list, two words
    /// per moved child (13 → 15 words for the sample's one; 258 → 290
    /// bits: the list's length, the child's `BlockRef` and its node slot,
    /// as varints). Re-captured when SubtreeQuery lists began naming root
    /// blocks instead of a prefix: `ListBlocks` (tag 33) carries its slot
    /// word, the `under` node slot (a presence bit and a varint), a length
    /// word and two `BlockRef`s (3 → 5 words, 35 → 65 bits). Re-captured
    /// when deletes began going out grouped per block: `DeleteKeys` (tag
    /// 8, was `DeleteKey`) carries its slot and, per key, a node and a
    /// depth — the sample's two keys price at `1 + 2·2` = 5 words (3 for
    /// one key, as before); Compact the tag, the slot, a varint length
    /// and the nodes, then a varint length and the depths on `DEPTH`
    /// (32 → 64 bits).
    #[rustfmt::skip]
    const REQ_GOLDEN: [(u64, u64); 25] = [
        (52, 529), (52, 517), (1, 16), (1, 16),
        (43, 400), (3, 32), (5, 64), (21, 204),
        (24, 244), (2, 32), (30, 442), (19, 387),
        (18, 380), (1, 16), (1, 16), (1, 16),
        (2, 17), (3, 40), (15, 290), (2, 24),
        (2, 33), (3, 33), (3, 34), (1, 8),
        (5, 65),
    ];

    /// As `REQ_GOLDEN`, for `resp_samples()`. `Placed` lost its slot
    /// fields (6 → 1 words) and `SlotTaken` (tag 15) is new. `Subtree`
    /// gained its `meta` field (23 → 24 words, 219 → 236 bits: the
    /// presence bit and the `MetaRef`); `Listed` (tag 16: two length
    /// words, three blocks and one meta-block) and `BadSlot` (tag 17) are
    /// new. `BlockResults` gained its `values` list (6 → 9 words: a length
    /// word and one `(tag, value)` pair; 67 → 100 bits: the presence bit,
    /// the length, tag 7 and value 1234 as varints). `RootMatch` and
    /// `EntrySummary` lost their `descend` field: `Matches` keeps its 7
    /// words (114 → 96 bits: per match the presence bit, and for the
    /// second the `MetaRef`), `MetaSummary` drops 7 → 6 words (173 → 156
    /// bits). `Listed` names each child meta-block's root block beside it
    /// (6 → 7 words, 88 → 104 bits: the `BlockRef` as varints), and
    /// `Subtree`'s `meta` names the block's node slot beside its
    /// `MetaRef` (24 → 25 words, 236 → 244 bits: the slot as a varint).
    /// `BlockVitals` gained its `image`, sampled twice: absent it keeps 5
    /// words (49 → 50 bits: the presence bit), present it adds the
    /// image's `BlockDataOut` words (a leaf image of 24 words: 29 words,
    /// 443 bits). `Subtree` follows the image's depth on the `DEPTH`
    /// stream, so its depth delta takes one more varint group (244 → 252
    /// bits, words unchanged). `Deferred` (tag 18, a bare tag) is new.
    #[rustfmt::skip]
    const RESP_GOLDEN: [(u64, u64); 20] = [
        (7, 96), (9, 100), (6, 156), (26, 419),
        (18, 403), (5, 50), (29, 443), (1, 16),
        (2, 17), (25, 252), (4, 49), (2, 25),
        (2, 9), (1, 8), (1, 8), (1, 8),
        (1, 16), (7, 104), (1, 16), (1, 8),
    ];

    /// The variant tag a message encodes first.
    fn tag_of<T: Wire>(m: &T) -> u64 {
        let mut enc = Enc::new();
        m.encode_frame(&mut enc);
        Dec::new(enc.words()).get_varint().expect("tag")
    }

    #[test]
    fn req_variants_roundtrip_in_one_group() {
        let msgs = req_samples();
        let tags: Vec<u64> = msgs.iter().map(tag_of).collect();
        // tags 1, 18, 24, 25 and 29–32 are retired (WIRE_FORMAT.md)
        let live = (2..=17).chain(19..=23).chain(26..=28).chain([33]);
        assert_eq!(tags, live.collect::<Vec<u64>>());
        assert_eq!(roundtrip_group(&msgs), REQ_GOLDEN);
    }

    #[test]
    fn resp_variants_roundtrip_in_one_group() {
        let msgs = resp_samples();
        let mut tags: Vec<u64> = msgs.iter().map(tag_of).collect();
        tags.dedup();
        assert_eq!(tags, (1..=18).collect::<Vec<u64>>());
        assert_eq!(roundtrip_group(&msgs), RESP_GOLDEN);
    }

    #[test]
    fn compact_frames_beat_plain_word_counts_on_structured_messages() {
        // The whole point: real protocol messages should encode well
        // under `wire_words`, not just round-trip.
        let piece = sample_piece();
        let req = Req::MatchBlock {
            slot: 3,
            piece,
            values: false,
        };
        let mut enc = Enc::new();
        enc.begin_frame();
        req.encode_frame(&mut enc);
        let encoded = enc.end_frame();
        assert!(
            encoded < req.wire_words(),
            "compact {} >= plain {}",
            encoded,
            req.wire_words()
        );

        let resp = Resp::Matches(vec![
            RootMatch {
                qt_below: 3,
                depth: 96,
                block: bref(0, 1),
            };
            8
        ]);
        let mut enc = Enc::new();
        enc.begin_frame();
        resp.encode_frame(&mut enc);
        let encoded = enc.end_frame();
        assert!(
            encoded < resp.wire_words(),
            "compact {} >= plain {}",
            encoded,
            resp.wire_words()
        );
    }

    proptest! {
        #[test]
        fn arbitrary_tries_roundtrip(
            raw_keys in proptest::collection::vec(any::<u64>(), 1..24),
            deletes in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
        ) {
            let keys: Vec<u64> = raw_keys
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut t = Trie::new();
            for &k in &keys {
                t.insert(&BitStr::from_u64(k, 64), k ^ 0x5a5a);
            }
            for idx in &deletes {
                let k = keys[idx.index(keys.len())];
                t.delete(BitStr::from_u64(k, 64).as_slice());
            }
            let mut enc = Enc::new();
            t.enc(&mut enc);
            let mut dec = Dec::new(enc.words());
            let back = Trie::dec(&mut dec).unwrap();
            prop_assert_eq!(back.items(), t.items());
            prop_assert_eq!(back.id_bound(), t.id_bound());
            back.check_invariants(true);
        }

        #[test]
        fn arbitrary_req_groups_roundtrip(
            slots in proptest::collection::vec(0u32..1000, 1..12),
            nodes in proptest::collection::vec(any::<u32>(), 1..12),
            depths in proptest::collection::vec(any::<u64>(), 1..12),
        ) {
            let n = slots.len().min(nodes.len()).min(depths.len());
            let msgs: Vec<Req> = (0..n)
                .map(|i| match i % 4 {
                    0 => Req::ReadKey { slot: slots[i], node: nodes[i], depth: depths[i] },
                    1 => Req::FetchBlock { slot: slots[i] },
                    2 => Req::SetParent {
                        slot: slots[i],
                        parent: Some(BlockRef { module: i as u32, slot: nodes[i] }),
                    },
                    _ => Req::DeleteKeys {
                        slot: slots[i],
                        nodes: vec![nodes[i]],
                        depths: vec![depths[i]],
                    },
                })
                .collect();
            roundtrip_group(&msgs);
        }

        #[test]
        fn arbitrary_labels_roundtrip_shared(
            raw in proptest::collection::vec((any::<u64>(), 0usize..=64), 1..12),
        ) {
            let labels: Vec<BitStr> =
                raw.iter().map(|&(v, l)| BitStr::from_u64(v, l)).collect();
            let mut enc = Enc::new();
            for b in &labels {
                put_shared(&mut enc, stream::LABEL_REM, b);
            }
            let mut dec = Dec::new(enc.words());
            for b in &labels {
                let back = get_shared(&mut dec, stream::LABEL_REM).unwrap();
                prop_assert_eq!(&back, b);
            }
        }
    }
}
