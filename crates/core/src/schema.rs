//! The one wire schema of the PIM-trie protocol: every [`Req`] and
//! [`Resp`] variant and every payload struct they carry, listed once.
//!
//! The table at the bottom of this file is the normative field order
//! (`WIRE_FORMAT.md` §"Structural frames of the PIM-trie protocol").
//! [`wire_schema!`] expands it, at compile time, into the four views of a
//! message the rest of the crate uses:
//!
//! * [`Wire::wire_words`] — the Plain (v1) size, the `=> expr` of a
//!   variant or the `words = expr` of a struct, written over the entry's
//!   own field names;
//! * [`Encode`] (which [`Wire::encode_frame`] of `Req`/`Resp` calls) —
//!   the Compact (v2) structural frame: a varint variant tag, then the
//!   fields in table order;
//! * [`Decode`] — the mirror of `Encode`;
//! * [`Fingerprint`] — the CRC digest of the sealed envelopes
//!   ([`crate::wire_guard`]): the variant tag, then every field in table
//!   order.
//!
//! A field written bare is coded by its type's own primitive codec in
//! [`crate::codec`] (`u*` varint, `i64` zig-zag varint, `bool` one bit,
//! `HashVal` raw word, `BitStr`/`BitsMsg` label, `BlockRef`/`MetaRef`
//! module varint + slot delta, `Option` presence bit, `Vec` varint
//! length, tuples in order, `Trie`/`TrieMsg` the structural trie frame,
//! a payload struct its own entry here). A field written `name: kind`
//! overrides that for the Compact frame only:
//!
//! | kind        | Compact coding                                              |
//! |-------------|-------------------------------------------------------------|
//! | `delta(S)`  | delta against stream `S` of [`pim_sim::codec_stream`]        |
//! | `deltas(S)` | varint length, then each element as `delta(S)`               |
//! | `shared(S)` | label with shared-prefix elimination against label stream `S`|
//!
//! `opaque struct` digests the entry's Plain size instead of its fields:
//! the fault layer cannot flip bits inside it (see [`Fingerprint`]).
//!
//! Every generated `match` is exhaustive and every struct is destructured
//! without `..`, so a variant or field added to a type but not to the
//! table — or the reverse — does not compile.

use crate::codec::{get_shared, put_shared, Decode, Encode};
use crate::hvm::QueryPiece;
use crate::module::{
    BlockDataOut, BlockNodeResult, DescendOut, EntrySummary, GraftMsg, MetaChildInfo, MetaFullNode,
    MetaFullOut, NewMetaChild, NewMetaNode, PutBlockMsg, PutMetaMsg, Req, Resp, RootMatch,
};
use crate::wire_guard::{Fingerprint, Fp};
use pim_sim::{codec_stream as stream, CodecError, Dec, Enc, Wire};
use std::borrow::Borrow;

/// Append one field to the Compact frame by its kind.
macro_rules! put_field {
    ($e:ident, $v:ident) => {
        Encode::enc($v, $e)
    };
    ($e:ident, $v:ident, delta($s:ident)) => {
        $e.put_delta(stream::$s, *$v as u64)
    };
    ($e:ident, $v:ident, deltas($s:ident)) => {{
        $e.put_varint($v.len() as u64);
        for &x in $v {
            $e.put_delta(stream::$s, x as u64);
        }
    }};
    ($e:ident, $v:ident, shared($s:ident)) => {
        put_shared($e, stream::$s, Borrow::<bitstr::BitStr>::borrow($v))
    };
}

/// Read one field back, the mirror of [`put_field!`].
macro_rules! get_field {
    ($d:ident) => {
        Decode::dec($d)?
    };
    ($d:ident, delta($s:ident)) => {
        $d.get_delta(stream::$s)? as _
    };
    ($d:ident, deltas($s:ident)) => {{
        let n = $d.get_varint()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push($d.get_delta(stream::$s)? as _);
        }
        out
    }};
    ($d:ident, shared($s:ident)) => {
        get_shared($d, stream::$s)?.into()
    };
}

macro_rules! wire_schema {
    () => {};

    (struct $T:ident { $($f:ident $(: $k:ident($s:ident))?),* $(,)? }
     $(words = $w:expr)?; $($rest:tt)*) => {
        wire_schema!(@codec $T { $($f $(: $k($s))?),* });
        wire_schema!(@wire $T { $($f),* } $($w)?);
        impl Fingerprint for $T {
            fn feed(&self, fp: &mut Fp) {
                let Self { $($f),* } = self;
                $($f.feed(fp);)*
            }
        }
        wire_schema!($($rest)*);
    };

    (opaque struct $T:ident { $($f:ident $(: $k:ident($s:ident))?),* $(,)? }
     words = $w:expr; $($rest:tt)*) => {
        wire_schema!(@codec $T { $($f $(: $k($s))?),* });
        wire_schema!(@wire $T { $($f),* } $w);
        impl Fingerprint for $T {
            fn feed(&self, fp: &mut Fp) {
                fp.word(self.wire_words());
            }
        }
        wire_schema!($($rest)*);
    };

    (enum $E:ident {
        $($tag:literal: $V:ident $(($b:ident))?
          $({ $($f:ident $(: $k:ident($s:ident))?),* })? => $w:expr),* $(,)?
     } $($rest:tt)*) => {
        impl Wire for $E {
            #[allow(unused_variables)]
            fn wire_words(&self) -> u64 {
                match self {
                    $($E::$V $(($b))? $({ $($f),* })? => $w,)*
                }
            }

            fn encode_frame(&self, enc: &mut Enc) {
                self.enc(enc);
            }
        }
        impl Encode for $E {
            fn enc(&self, e: &mut Enc) {
                match self {
                    $($E::$V $(($b))? $({ $($f),* })? => {
                        e.put_varint($tag);
                        $(put_field!(e, $b);)?
                        $($(put_field!(e, $f $(, $k($s))?);)*)?
                    })*
                }
            }
        }
        impl Decode for $E {
            #[deny(unreachable_patterns)] // a tag listed twice
            fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(match d.get_varint()? {
                    $($tag => $E::$V
                        $(({ let $b = get_field!(d); $b }))?
                        $({ $($f: get_field!(d $(, $k($s))?)),* })?,)*
                    _ => return Err(CodecError::UnexpectedEnd),
                })
            }
        }
        impl Fingerprint for $E {
            fn feed(&self, fp: &mut Fp) {
                match self {
                    $($E::$V $(($b))? $({ $($f),* })? => {
                        fp.word($tag);
                        $($b.feed(fp);)?
                        $($($f.feed(fp);)*)?
                    })*
                }
            }
        }
        wire_schema!($($rest)*);
    };

    (@codec $T:ident { $($f:ident $(: $k:ident($s:ident))?),* }) => {
        impl Encode for $T {
            fn enc(&self, e: &mut Enc) {
                let Self { $($f),* } = self;
                $(put_field!(e, $f $(, $k($s))?);)*
            }
        }
        impl Decode for $T {
            fn dec(d: &mut Dec<'_>) -> Result<Self, CodecError> {
                Ok(Self { $($f: get_field!(d $(, $k($s))?)),* })
            }
        }
    };

    (@wire $T:ident { $($f:ident),* }) => {};
    (@wire $T:ident { $($f:ident),* } $w:expr) => {
        impl Wire for $T {
            #[allow(unused_variables)]
            fn wire_words(&self) -> u64 {
                let Self { $($f),* } = self;
                $w
            }
        }
    };
}

wire_schema! {
    opaque struct QueryPiece {
        trie,
        tags: deltas(TAG),
        root_depth: delta(DEPTH),
        root_pre_hash,
        root_rem: shared(LABEL_REM),
    } words = trie.size_words() as u64 + trie.n_nodes() as u64 + 3;

    struct RootMatch {
        qt_below: delta(TAG),
        depth: delta(DEPTH),
        block,
    } words = 3;

    struct BlockNodeResult {
        tag: delta(TAG),
        depth: delta(DEPTH),
        anchor_node,
        anchor_off,
        at_mirror,
        redirect,
    } words = 5;

    // depth + hash + rem + s_last (≤ 1 word each) + the block
    struct EntrySummary {
        depth: delta(DEPTH),
        pre_hash,
        rem: shared(LABEL_REM),
        s_last: shared(LABEL_LAST),
        target,
    } words = 5;

    struct GraftMsg {
        anchor_node,
        anchor_off,
        subtree,
    } words = 2 + subtree.wire_words();

    struct PutBlockMsg {
        trie,
        root_depth: delta(DEPTH),
        root_hash,
        s_last: shared(LABEL_LAST),
        pre_hash,
        rem: shared(LABEL_REM),
        parent,
        mirrors,
        meta,
    } words = 6 + trie.wire_words() + s_last.wire_words() + mirrors.len() as u64 * 2;

    struct NewMetaNode {
        block,
        depth: delta(DEPTH),
        hash,
        pre_hash,
        rem: shared(LABEL_REM),
        s_last: shared(LABEL_LAST),
    };

    struct NewMetaChild {
        mref,
        under_node,
        root_block,
        depth: delta(DEPTH),
        pre_hash,
        rem: shared(LABEL_REM),
        s_last: shared(LABEL_LAST),
    };

    struct PutMetaMsg {
        nodes,
        root_idx,
        parent,
        children,
        parents,
    } words = 3 + nodes.len() as u64 * 8 + children.len() as u64 * 7;

    struct MetaFullNode {
        slot: delta(NODE_SLOT),
        block,
        parent,
        depth: delta(DEPTH),
        hash,
        pre_hash,
        rem: shared(LABEL_REM),
        s_last: shared(LABEL_LAST),
    };

    struct MetaChildInfo {
        mref,
        under_node,
        entry_slot,
        root_block,
    };

    struct MetaFullOut {
        nodes,
        root_node,
        parent,
        children,
    } words = 2 + nodes.len() as u64 * 8 + children.len() as u64 * 8;

    struct BlockDataOut {
        trie,
        root_depth: delta(DEPTH),
        root_hash,
        s_last: shared(LABEL_LAST),
        pre_hash,
        rem: shared(LABEL_REM),
        parent,
        mirrors,
        meta,
    } words = 5 + trie.wire_words() + mirrors.len() as u64 * 2;

    struct DescendOut {
        consumed,
        next,
        anchor_node,
        anchor_off,
    } words = 4;

    enum Req {
        // tag 1 is retired (WIRE_FORMAT.md): tags are never renumbered
        2: MatchMeta { slot, piece } => 2 + piece.wire_words(),
        // the `values` flag is one bit beside the slot
        3: MatchBlock { slot, piece, values } => 2 + piece.wire_words(),
        4: FetchMeta { slot } => 1,
        5: FetchBlock { slot } => 1,
        6: GraftMany { slot, grafts } => grafts.wire_words(),
        7: ReadKey { slot, node, depth: delta(DEPTH) } => 3,
        // the slot, then a node and a depth a key: the key count rides in
        // the frame's length, as the graft count does in `GraftMany`'s
        8: DeleteKeys { slot, nodes, depths: deltas(DEPTH) } => 1 + 2 * nodes.len() as u64,
        9: MergeChild { slot, child, subtree } => 2 + subtree.wire_words(),
        10: ReplaceBlock { slot, trie, mirrors } => {
            1 + trie.wire_words() + mirrors.len() as u64 * 2
        },
        11: RemoveMetaChild { slot, mref } => 2,
        12: PutBlock { slot: delta(BLOCK_SLOT), msg } => 1 + msg.wire_words(),
        13: PutMeta { slot: delta(META_SLOT), msg } => 1 + msg.wire_words(),
        14: ReplaceMeta { slot, msg } => msg.wire_words(),
        15: FetchMetaFull { slot } => 1,
        16: DropBlock { slot } => 1,
        17: DropMeta { slot } => 1,
        // tag 18 is retired
        19: SetParent { slot, parent } => 2,
        20: SetBlockMeta { slot, meta, meta_slot } => 3,
        21: AddMetaNodes {
            slot, parent_node, nodes, parents, node_slots: deltas(NODE_SLOT), relink
        } => {
            2 + nodes.len() as u64 * 9 + node_slots.len() as u64 + relink.len() as u64 * 2
        },
        22: RemoveMetaNode { slot, node } => 2,
        23: SetMetaParent { slot, parent } => 2,
        // tags 24 and 25 are retired
        // the `meta` flag is one bit beside `off`
        26: FetchSubtree { slot, node, off, meta } => 3,
        27: DescendBlock { slot, bits } => 1 + bits.wire_words(),
        28: ResetModule => 1,
        // tags 29–32 are retired
        // `under` is a presence bit and, when there, a node slot word
        33: ListBlocks { slot, under, roots } => {
            1 + u64::from(under.is_some()) + roots.wire_words()
        },
    }

    enum Resp {
        1: Matches(v) => v.wire_words(),
        // `values` is there exactly when the request asked: no tag word
        2: BlockResults { results, collision, values } => {
            results.wire_words() + values.as_ref().map_or(0, Wire::wire_words)
        },
        3: MetaSummary { entries } => entries.wire_words(),
        4: BlockData(b) => b.wire_words(),
        5: MetaFull(m) => m.wire_words(),
        // `image` is there exactly when the block left its size band: no
        // tag word, the frame's length tells
        6: BlockVitals { weight, keys, children, keys_delta, collision, image } => {
            5 + image.as_ref().map_or(0, Wire::wire_words)
        },
        7: Placed { count } => 1,
        8: MetaVitals { nodes, parent } => 2,
        // `meta` is there exactly when the request asked: no tag word; it
        // is a `MetaRef` and a node slot
        9: Subtree { trie, children, depth: delta(DEPTH), meta } => {
            2 + trie.wire_words() + children.len() as u64 * 2 + 2 * u64::from(meta.is_some())
        },
        10: Descend(x) => x.wire_words(),
        11: Value(v) => 2,
        12: Ok => 1,
        13: CorruptReq => 1,
        14: Rebooted => 1,
        15: SlotTaken { slot } => 1,
        16: Listed { blocks, metas } => blocks.wire_words() + metas.wire_words(),
        17: BadSlot { slot } => 1,
        18: Deferred => 1,
    }
}
