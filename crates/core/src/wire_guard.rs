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
//! * **integrity** — a request whose checksum does not verify is answered
//!   with [`Resp::CorruptReq`] and *not executed*, so a corrupted mutation
//!   can never be applied;
//! * **at-most-once execution** — replies of the current round sequence
//!   are cached by `(seq, idx)`, so when the host retries a request whose
//!   *reply* was lost or corrupted, the module returns the cached reply
//!   instead of re-executing a (possibly mutating) request;
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
    if !sreq.verify() {
        return SealedResp::seal(sreq.seq, sreq.idx, Resp::CorruptReq);
    }
    if sreq.seq > ctx.state.cache_seq {
        ctx.state.cache_seq = sreq.seq;
        ctx.state.reply_cache.clear();
    }
    if let Some(r) = ctx.state.reply_cache.get(&(sreq.seq, sreq.idx)) {
        let cached = r.clone();
        return SealedResp::seal(sreq.seq, sreq.idx, cached);
    }
    let (seq, idx) = (sreq.seq, sreq.idx);
    let resp = handle(ctx, hasher, sreq.inner);
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

    #[test]
    fn different_payloads_differ() {
        let a = SealedReq::seal(1, 0, Req::FetchBlock { slot: 1 });
        let b = SealedReq::seal(1, 0, Req::FetchBlock { slot: 2 });
        assert_ne!(a.crc, b.crc);
        let c = SealedReq::seal(2, 0, Req::FetchBlock { slot: 1 });
        assert_ne!(a.crc, c.crc);
    }
}
