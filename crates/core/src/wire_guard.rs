//! CRC-64-sealed wire envelopes and the module side of the recovery
//! protocol.
//!
//! When [`PimTrieConfig::fault_tolerance`](crate::PimTrieConfig) is on,
//! every CPU↔PIM message travels inside a [`SealedReq`] / [`SealedResp`]
//! envelope: a `(seq, idx)` frame header identifying the request within
//! its round, plus a CRC-64/ECMA checksum over the header and a digest of
//! the payload (the same plain-remainder CRC used by
//! [`bitstr::crc::Crc64Hasher`] — the paper's "second incremental hash").
//! The envelope costs two extra wire words per message; with fault
//! tolerance off none of this code runs and metering is bit-identical to
//! the unguarded build.
//!
//! The module side ([`handle_sealed`]) implements three defenses:
//!
//! * **integrity** — a request whose checksum does not verify is *not
//!   executed*, so a corrupted mutation can never be applied; it is
//!   answered with [`Resp::CorruptReq`];
//! * **in-round order** — a round's requests depend on earlier ones of
//!   the same round in two ways only: a fill (`PutBlock`, `PutMeta`,
//!   `AddMetaNodes`) may take a slot an earlier request frees, and a
//!   `FetchMetaFull` follows the writes to its meta-block. Across retries
//!   such a request waits until every earlier request of its round has
//!   run: a pull, or a fill that finds its slot still live (it writes
//!   nothing), is answered with [`Resp::Deferred`] and retried. So a round
//!   may free a slot and fill it again, or pull a meta-block after writing
//!   it, as on the unsealed wire, and every other request runs as it
//!   arrives;
//! * **at-most-once execution** — replies of the current round sequence
//!   are cached by `(seq, idx)`, so when the host retries a request whose
//!   *reply* was lost or corrupted, the module returns the cached reply
//!   instead of re-executing a (possibly mutating) request. The cached
//!   reply is returned even when the retry itself arrived damaged: it is
//!   the genuine reply to the request its `(seq, idx)` header names, and
//!   the host checks the reply's own seal. So a large request need not
//!   arrive whole a second time to fetch a large reply (a write whose
//!   reply carries a block image);
//! * **crash fencing** — a module whose memory was wiped by a crash
//!   answers every request with [`Resp::Rebooted`] until the host resets
//!   it with [`Req::ResetModule`], instead of panicking on dangling slots.
//!
//! The host side (the retry ladder in `PimTrie::rounds`) lives in
//! `build.rs`. With tracing enabled
//! ([`PimTrie::enable_tracing`](crate::PimTrie::enable_tracing)), every
//! retry round the ladder issues is attributed to the
//! [`pim_sim::RETRANSMIT_PHASE`] (`recovery/retransmit`) trace phase and
//! its retried-request count lands on the same scope, so sealed-wire
//! recovery cost is separable from the op's own rounds in the trace.

use crate::module::{handle, ModuleState, Req, Resp};
use crate::refs::{BitsMsg, BlockRef, MetaRef, TrieMsg};
use bitstr::crc::Crc64Hasher;
use bitstr::hash::{HashVal, IncrementalHash, PolyHasher};
use bitstr::BitStr;
use pim_sim::{PimCtx, Wire};

#[expect(
    clippy::disallowed_types,
    reason = "memoized CRC-64/ECMA lookup table: the init is a pure function of the \
              fixed polynomial, so every thread observes the identical table"
)]
fn crc64() -> &'static Crc64Hasher {
    static CRC: std::sync::OnceLock<Crc64Hasher> = std::sync::OnceLock::new();
    CRC.get_or_init(Crc64Hasher::ecma)
}

/// Running CRC-64 fingerprint sink: words are absorbed via the hasher's
/// associative combine (`acc·x^64 ⊕ word`), i.e. the digest is the CRC of
/// the concatenated word stream.
pub(crate) struct Fp {
    acc: HashVal,
}

impl Fp {
    fn new() -> Self {
        Fp { acc: HashVal(0) }
    }

    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.acc = crc64().combine(self.acc, HashVal(w), 64);
    }

    fn finish(self) -> u64 {
        self.acc.0
    }
}

/// Types whose semantic content can be folded into a wire checksum.
///
/// This module implements the primitives; the impls for `Req`, `Resp`
/// and their payload structs (variant tag, then every field in wire
/// order) are generated from the `schema.rs` field table.
///
/// Large opaque payloads (shipped tries, query pieces) contribute their
/// structural size rather than full content: the simulator's fault layer
/// cannot corrupt them in flight (their [`Wire::flip_bit`] is a no-op),
/// so the checksum only has to cover what can actually change on the
/// simulated wire — and any flip that would land in an opaque payload is
/// rerouted to the envelope's CRC word, where it is always detected.
pub(crate) trait Fingerprint {
    fn feed(&self, fp: &mut Fp);
}

macro_rules! fp_scalar {
    ($($t:ty),*) => {
        $(impl Fingerprint for $t {
            #[inline]
            fn feed(&self, fp: &mut Fp) {
                fp.word(*self as u64);
            }
        })*
    };
}

fp_scalar!(u8, u16, u32, u64, usize, i64);

impl Fingerprint for bool {
    fn feed(&self, fp: &mut Fp) {
        fp.word(*self as u64);
    }
}

impl Fingerprint for HashVal {
    fn feed(&self, fp: &mut Fp) {
        fp.word(self.0);
    }
}

impl Fingerprint for BlockRef {
    fn feed(&self, fp: &mut Fp) {
        fp.word((self.module as u64) << 32 | self.slot as u64);
    }
}

impl Fingerprint for MetaRef {
    fn feed(&self, fp: &mut Fp) {
        fp.word((self.module as u64) << 32 | self.slot as u64);
    }
}

impl Fingerprint for BitStr {
    fn feed(&self, fp: &mut Fp) {
        let s = self.as_slice();
        fp.word(s.len() as u64);
        let mut i = 0;
        while i < s.len() {
            fp.word(s.chunk(i, 64.min(s.len() - i)));
            i += 64;
        }
    }
}

impl Fingerprint for BitsMsg {
    fn feed(&self, fp: &mut Fp) {
        self.0.feed(fp);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn feed(&self, fp: &mut Fp) {
        match self {
            None => fp.word(0),
            Some(v) => {
                fp.word(1);
                v.feed(fp);
            }
        }
    }
}

impl<T: Fingerprint> Fingerprint for Box<T> {
    fn feed(&self, fp: &mut Fp) {
        (**self).feed(fp);
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn feed(&self, fp: &mut Fp) {
        fp.word(self.len() as u64);
        for v in self {
            v.feed(fp);
        }
    }
}

macro_rules! fp_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Fingerprint),+> Fingerprint for ($($name,)+) {
            fn feed(&self, fp: &mut Fp) {
                $(self.$idx.feed(fp);)+
            }
        }
    };
}

fp_tuple!(A: 0, B: 1);
fp_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Opaque payload: digest the structural wire size (see trait docs).
impl Fingerprint for TrieMsg {
    fn feed(&self, fp: &mut Fp) {
        fp.word(self.wire_words());
    }
}

pub(crate) fn seal_crc<T: Fingerprint>(domain: u64, seq: u64, idx: u32, inner: &T) -> u64 {
    let mut fp = Fp::new();
    fp.word(domain);
    fp.word(seq);
    fp.word(idx as u64);
    inner.feed(&mut fp);
    fp.finish()
}

macro_rules! sealed {
    ($name:ident, $inner:ty, $domain:expr) => {
        /// A CRC-64-framed wire envelope (see module docs).
        #[derive(Clone)]
        pub(crate) struct $name {
            /// Round sequence number (one per `PimTrie::rounds` call).
            pub seq: u64,
            /// Index of the request within the module's inbox.
            pub idx: u32,
            /// CRC-64 over the frame header and the payload digest.
            pub crc: u64,
            /// The payload.
            pub inner: $inner,
        }

        impl $name {
            pub fn seal(seq: u64, idx: u32, inner: $inner) -> Self {
                let crc = seal_crc($domain, seq, idx, &inner);
                $name {
                    seq,
                    idx,
                    crc,
                    inner,
                }
            }

            /// Recompute the checksum and compare.
            pub fn verify(&self) -> bool {
                self.crc == seal_crc($domain, self.seq, self.idx, &self.inner)
            }
        }

        impl Wire for $name {
            /// Header word (`seq`/`idx`) + CRC word + payload.
            fn wire_words(&self) -> u64 {
                2 + self.inner.wire_words()
            }

            /// Fan the flip over the whole frame. A flip that would land
            /// in a payload whose `flip_bit` is a no-op (opaque to the
            /// fault layer) is rerouted to the CRC word, so every injected
            /// flip both lands and is detectable.
            fn flip_bit(&mut self, r: u64) -> bool {
                let words = self.wire_words();
                let w = r % words;
                let bit = r / words;
                match w {
                    0 => {
                        if bit % 64 < 48 {
                            self.seq ^= 1 << (bit % 48);
                        } else {
                            self.idx ^= 1 << (bit % 32);
                        }
                        true
                    }
                    1 => {
                        self.crc ^= 1 << (bit % 64);
                        true
                    }
                    _ => {
                        if !self.inner.flip_bit(bit) {
                            self.crc ^= 1 << (bit % 64);
                        }
                        true
                    }
                }
            }

            /// Compact frame: delta-coded `seq`, varint `idx`, the raw
            /// CRC word (incompressible), then the payload's structural
            /// frame (see [`crate::codec`]). The CRC still covers the
            /// semantic message — fault flips land on encoded word
            /// indices but corrupt semantic fields, so detection is
            /// unchanged under either codec.
            fn encode_frame(&self, enc: &mut pim_sim::Enc) {
                enc.put_delta(pim_sim::codec_stream::SEQ, self.seq);
                enc.put_varint(self.idx as u64);
                enc.put_word(self.crc);
                crate::codec::Encode::enc(&self.inner, enc);
            }
        }
    };
}

sealed!(SealedReq, Req, 0x5EA1_0001);
sealed!(SealedResp, Resp, 0x5EA1_0002);

/// Module-side sealed request processing: crash fencing, integrity check,
/// at-most-once execution (see module docs), then the ordinary
/// [`handle`].
pub(crate) fn handle_sealed(
    ctx: &mut PimCtx<'_, ModuleState>,
    hasher: &PolyHasher,
    sreq: SealedReq,
) -> SealedResp {
    // A module that lost its memory cannot serve anything until the host
    // resets it — except the reset itself.
    if ctx.state.crashed && !matches!(sreq.inner, Req::ResetModule) {
        return SealedResp::seal(sreq.seq, sreq.idx, Resp::Rebooted);
    }
    let (seq, idx) = (sreq.seq, sreq.idx);
    let intact = sreq.verify();
    if intact && seq > ctx.state.cache_seq {
        ctx.state.cache_seq = seq;
        ctx.state.reply_cache.clear();
    }
    // a damaged header names no cached reply, or another genuine one
    if seq == ctx.state.cache_seq {
        if let Some(r) = ctx.state.reply_cache.get(&(seq, idx)) {
            let cached = r.clone();
            return SealedResp::seal(seq, idx, cached);
        }
    }
    if !intact {
        return SealedResp::seal(seq, idx, Resp::CorruptReq);
    }
    // A round's requests depend on earlier ones of the same round in two
    // ways only: a fill may take a slot an earlier request frees, and a
    // meta-block pull follows the writes to it. Across retries either
    // waits until every earlier request of its round has run (has a
    // cached reply), as it would on the unsealed wire.
    let earlier_ran = |st: &ModuleState| st.reply_cache.range(..(seq, idx)).count() == idx as usize;
    if matches!(sreq.inner, Req::FetchMetaFull { .. }) && !earlier_ran(ctx.state) {
        return SealedResp::seal(seq, idx, Resp::Deferred);
    }
    let resp = handle(ctx, hasher, sreq.inner);
    // a fill that found its slot live wrote nothing
    if matches!(resp, Resp::SlotTaken { .. }) && !earlier_ran(ctx.state) {
        return SealedResp::seal(seq, idx, Resp::Deferred);
    }
    // a reset wiped the cache with the rest of the module
    ctx.state.cache_seq = seq;
    ctx.state.reply_cache.insert((seq, idx), resp.clone());
    SealedResp::seal(seq, idx, resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_verify_roundtrip() {
        let s = SealedReq::seal(3, 1, Req::FetchBlock { slot: 9 });
        assert!(s.verify());
        assert_eq!(s.wire_words(), 3);
    }

    /// Every `Req`/`Resp` variant, sealed: a flip steered at any word of
    /// the frame, at any bit of that word, lands and fails `verify`.
    #[test]
    fn any_flip_is_detected() {
        use crate::codec::tests::{req_samples, resp_samples};
        fn check<S: Wire + Clone>(sealed: S, verify: fn(&S) -> bool, what: &str) {
            assert!(verify(&sealed));
            let words = sealed.wire_words();
            for r in 0..words * 64 {
                let mut s = sealed.clone();
                assert!(s.flip_bit(r), "{what}: flip {r} did not land");
                assert!(!verify(&s), "{what}: flip {r} went undetected");
            }
        }
        for (i, req) in req_samples().into_iter().enumerate() {
            let sealed = SealedReq::seal(7, 2, req);
            check(sealed, SealedReq::verify, &format!("req sample {i}"));
        }
        for (i, resp) in resp_samples().into_iter().enumerate() {
            let sealed = SealedResp::seal(7, 2, resp);
            check(sealed, SealedResp::verify, &format!("resp sample {i}"));
        }
    }

    /// One module holding a non-root leaf block (the empty root string
    /// plus the key `1`) in a size band of `K_B = 2` words, and a hasher.
    fn one_block() -> (pim_sim::PimSystem<ModuleState>, PolyHasher) {
        use crate::module::{DataBlock, SizeBand};
        let mut sys = pim_sim::PimSystem::new(1, |_| {
            ModuleState::new(bitstr::hash::HashWidth::FULL, SizeBand::new(2))
        });
        let mut trie = trie_core::Trie::new();
        trie.insert(&BitStr::from_bin_str("1"), 1);
        let block = DataBlock {
            trie,
            root_depth: 0,
            root_hash: HashVal(0),
            s_last: BitStr::new(),
            pre_hash: HashVal(0),
            rem: BitStr::new(),
            parent: Some(BlockRef { module: 0, slot: 1 }),
            mirrors: std::collections::BTreeMap::new(),
            meta: None,
        };
        sys.module_mut(0).blocks.insert_at(0, block).unwrap();
        (sys, PolyHasher::with_seed(1))
    }

    /// Run one sealed round on module 0; returns its replies.
    fn sealed_round(
        sys: &mut pim_sim::PimSystem<ModuleState>,
        hasher: &PolyHasher,
        msgs: Vec<SealedReq>,
    ) -> Vec<SealedResp> {
        sys.round("sealed", vec![msgs], |ctx, msgs| {
            msgs.into_iter()
                .map(|m| handle_sealed(ctx, hasher, m))
                .collect()
        })
        .remove(0)
    }

    /// A graft of eight keys below `0` that pushes the block past `2·K_B`,
    /// sealed as request 0 of round `seq`.
    fn big_graft(seq: u64) -> SealedReq {
        let mut sub = trie_core::Trie::new();
        for k in [
            "0000", "0011", "0101", "0110", "0001", "0010", "0100", "0111",
        ] {
            sub.insert(&BitStr::from_bin_str(k), 5);
        }
        let graft = crate::module::GraftMsg {
            anchor_node: 0,
            anchor_off: 0,
            subtree: TrieMsg(sub),
        };
        let req = Req::GraftMany {
            slot: 0,
            grafts: vec![graft],
        };
        SealedReq::seal(seq, 0, req)
    }

    /// The image a sealed reply carries, as its keys.
    fn image_keys(r: &SealedResp) -> Option<Vec<(BitStr, u64)>> {
        assert!(r.verify());
        match &r.inner {
            Resp::BlockVitals { image, .. } => image.as_ref().map(|i| i.trie.0.items()),
            _ => panic!("not a write reply"),
        }
    }

    #[test]
    fn a_retried_write_gets_its_cached_image_even_when_it_arrives_damaged() {
        let (mut sys, hasher) = one_block();
        let first = sealed_round(&mut sys, &hasher, vec![big_graft(1)]);
        let image = image_keys(&first[0]).expect("the graft left the band");
        assert_eq!(image.len(), 9);
        let weight = sys.module(0).blocks.get(0).unwrap().weight();
        // the reply was lost: the intact retry, then a retry damaged in
        // its payload, both get the cached reply, image and all
        let mut damaged = big_graft(1);
        assert!(damaged.flip_bit(2) && !damaged.verify());
        for retry in [big_graft(1), damaged] {
            let again = sealed_round(&mut sys, &hasher, vec![retry]);
            assert_eq!(image_keys(&again[0]).as_ref(), Some(&image));
        }
        // and the block was grafted once
        assert_eq!(sys.module(0).blocks.get(0).unwrap().weight(), weight);
    }

    #[test]
    fn a_fill_and_a_pull_wait_for_the_earlier_requests_of_their_round() {
        let (mut sys, hasher) = one_block();
        // the round frees block slot 0, fills it again and pulls a
        // meta-block; the free arrives damaged
        let put = || {
            let msg = crate::module::PutBlockMsg {
                trie: TrieMsg(trie_core::Trie::new()),
                root_depth: 0,
                root_hash: HashVal(0),
                s_last: BitsMsg(BitStr::new()),
                pre_hash: HashVal(0),
                rem: BitsMsg(BitStr::new()),
                parent: None,
                mirrors: Vec::new(),
                meta: None,
            };
            let req = Req::PutBlock {
                slot: 0,
                msg: Box::new(msg),
            };
            SealedReq::seal(1, 1, req)
        };
        let pull = || SealedReq::seal(1, 2, Req::FetchMetaFull { slot: 0 });
        let mut drop = SealedReq::seal(1, 0, Req::DropBlock { slot: 0 });
        assert!(drop.flip_bit(2));
        let out = sealed_round(&mut sys, &hasher, vec![drop, put(), pull()]);
        assert!(matches!(out[0].inner, Resp::CorruptReq));
        assert!(matches!(out[1].inner, Resp::Deferred));
        assert!(matches!(out[2].inner, Resp::Deferred));
        assert_eq!(sys.module(0).blocks.get(0).unwrap().trie.n_keys(), 1);
        // retried, they run in inbox order: the slot is free for the fill
        let drop = SealedReq::seal(1, 0, Req::DropBlock { slot: 0 });
        let out = sealed_round(&mut sys, &hasher, vec![drop, put(), pull()]);
        assert!(matches!(out[1].inner, Resp::Placed { .. }));
        assert!(matches!(out[2].inner, Resp::BadSlot { slot: 0 }));
        assert_eq!(sys.module(0).blocks.get(0).unwrap().trie.n_keys(), 0);
    }

    #[test]
    fn different_payloads_differ() {
        let a = SealedReq::seal(1, 0, Req::FetchBlock { slot: 1 });
        let b = SealedReq::seal(1, 0, Req::FetchBlock { slot: 2 });
        assert_ne!(a.crc, b.crc);
        let c = SealedReq::seal(2, 0, Req::FetchBlock { slot: 1 });
        assert_ne!(a.crc, c.crc);
    }
}
