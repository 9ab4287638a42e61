//! Versioned CPU↔PIM wire codec: bit-level frames, varints, per-stream
//! delta coding and shared-prefix label elimination.
//!
//! In the PIM cost model, words on the wire *are* IO time, so the
//! simulator's honest per-message word sizes set a floor on every
//! communication bound the reproduction can report. This crate provides
//! the *encodings* that attack that floor: a [`WireCodec`] version
//! negotiated per run, and the bit-level [`Enc`]/[`Dec`] pair that the
//! compact codec (`v2`) meters frames with. The legacy codec (`v1`,
//! [`WireCodec::Plain`]) never touches this crate at run time — its word
//! counts are the `Wire::wire_words` sums the simulator has always
//! charged — which is how `Plain` runs stay byte-identical to the
//! pre-codec tree.
//!
//! The normative description of both codecs — frame layout, varint and
//! delta rules, prefix-elimination grouping, version negotiation and CRC
//! coverage — lives in `WIRE_FORMAT.md` at the workspace root; this crate
//! is its executable counterpart and the doc comments below cite its
//! section names.
//!
//! Everything here is integer arithmetic on explicit state: no floats,
//! no unordered containers, no global state — the crate sits in
//! `pimtrie-lint`'s deterministic set and encoded sizes are a pure
//! function of the message values.
//!
//! Paper: PIM-tree (Kang et al.) and the UPMEM benchmarking study
//! (Gómez-Luna et al.) both identify per-op communication volume as the
//! binding resource on real PIM hardware; shrinking words/op is the
//! stated purpose of this layer.
//!
//! # Example: round-trip a frame
//!
//! ```
//! use pim_codec::{Dec, Enc, stream};
//!
//! // Encode one frame of a per-module group: a delta-coded id, a
//! // varint, and a bit-packed 5-bit label (labels are MSB-first, so
//! // the 5 bits sit at the top of the word).
//! let label = [0b10110u64 << 59];
//! let mut enc = Enc::new();
//! enc.begin_frame();
//! enc.put_delta(stream::NODE_ID, 41);
//! enc.put_varint(300);
//! enc.put_label(&label, 5);
//! let words = enc.end_frame();
//! assert!(words >= 1);
//!
//! // Decode it back with a fresh decoder over the same group.
//! let mut dec = Dec::new(enc.words());
//! dec.begin_frame();
//! assert_eq!(dec.get_delta(stream::NODE_ID).unwrap(), 41);
//! assert_eq!(dec.get_varint().unwrap(), 300);
//! assert_eq!(dec.get_label().unwrap(), (label.to_vec(), 5));
//! dec.end_frame().unwrap();
//! ```

#![warn(missing_docs)]

/// Delta and label stream identifiers (`WIRE_FORMAT.md` §"Streams").
///
/// A *stream* is one strand of cross-frame context inside a message
/// group: delta streams remember the previous value, label streams
/// remember the previous label for shared-prefix elimination. Encoder
/// and decoder reset all streams at group boundaries, so any frame
/// group decodes standalone — which is what lets selective retransmit
/// re-encode a retried subset as a fresh group.
pub mod stream {
    /// Sealed-envelope round sequence numbers (`SealedReq`/`SealedResp`).
    pub const SEQ: usize = 0;
    /// Trie node ids (explicit arena ids in trie frames).
    pub const NODE_ID: usize = 1;
    /// Query-trie tags (`QueryPiece::tags`, `RootMatch::qt_below`).
    pub const TAG: usize = 2;
    /// Global bit-depths of roots and matches.
    pub const DEPTH: usize = 3;
    /// Data-block slots (`BlockRef::slot`).
    pub const BLOCK_SLOT: usize = 4;
    /// Meta-block slots (`MetaRef::slot`).
    pub const META_SLOT: usize = 5;
    /// Meta-node slots within a meta-block.
    pub const NODE_SLOT: usize = 6;
    /// Number of delta streams an [`Enc`](crate::Enc)/[`Dec`](crate::Dec) tracks.
    pub const N_DELTA: usize = 8;

    /// `S_rem` pivot-remainder labels (shared-prefix eliminated).
    pub const LABEL_REM: usize = 0;
    /// `S_last` verification labels (shared-prefix eliminated).
    pub const LABEL_LAST: usize = 1;
    /// Number of label streams an [`Enc`](crate::Enc)/[`Dec`](crate::Dec) tracks.
    pub const N_LABEL: usize = 2;
}

/// Wire codec versions a run can negotiate (`WIRE_FORMAT.md` §"Version
/// negotiation").
///
/// `Plain` is version 1 and the default: the simulator's historical
/// as-written word metering, byte-identical to builds that predate this
/// crate. `Compact` is version 2: every message is encoded as a
/// bit-level frame (varints, per-stream deltas, bit-packed labels,
/// shared-prefix elimination) and the *encoded* word counts are what
/// the simulator meters and what fault injection indexes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireCodec {
    /// Version 1 — legacy as-written word counts, no frame headers, no
    /// negotiation round. The default.
    #[default]
    Plain,
    /// Version 2 — compact bit-level frames; negotiated with one metered
    /// handshake round before the first data round.
    Compact,
}

impl WireCodec {
    /// The protocol version number carried in the negotiation handshake.
    pub fn version(self) -> u64 {
        match self {
            WireCodec::Plain => 1,
            WireCodec::Compact => 2,
        }
    }

    /// Parse a version number back into a codec (`None` for unknown
    /// versions — the negotiation falls back to [`WireCodec::Plain`]).
    pub fn from_version(v: u64) -> Option<Self> {
        match v {
            1 => Some(WireCodec::Plain),
            2 => Some(WireCodec::Compact),
            _ => None,
        }
    }

    /// Resolve the version both sides support: the minimum of the two
    /// offers, clamped to known versions (`WIRE_FORMAT.md` §"Version
    /// negotiation").
    pub fn negotiate(host: u64, module: u64) -> WireCodec {
        WireCodec::from_version(host.min(module)).unwrap_or(WireCodec::Plain)
    }
}

/// Decoding failure: the bit stream ran out or carried an over-long
/// varint. Encoded frames inside the simulator are produced by [`Enc`]
/// and only corrupted *logically* (value flips re-encode to a different
/// valid stream), so decode errors indicate a harness bug, not a fault
/// — which is why [`Dec`] reports them instead of panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// A read ran past the end of the encoded group.
    UnexpectedEnd,
    /// A varint carried more than ten continuation groups.
    VarintOverflow,
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "encoded group ended mid-field"),
            CodecError::VarintOverflow => write!(f, "varint longer than 10 groups"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Zig-zag fold: maps signed deltas to small unsigned varints.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Longest common prefix, in bits, of two packed labels (MSB-first
/// convention — see [`Enc::put_label`]). The semantic string prefix is
/// exactly what shared-prefix elimination wants to strip.
fn label_lcp(a: &[u64], a_len: u64, b: &[u64], b_len: u64) -> u64 {
    let n = a_len.min(b_len);
    let mut i = 0u64;
    while i < n {
        let take = (n - i).min(64);
        let diff = label_chunk(a, i, take) ^ label_chunk(b, i, take);
        if diff != 0 {
            // diff is right-aligned in `take` bits, so its leading-zero
            // count is at least 64 - take and this never underflows
            return i + (diff.leading_zeros() as u64 + take - 64);
        }
        i += take;
    }
    n
}

/// Read `take ≤ 64` label bits starting at label bit `pos`, returned
/// right-aligned. Labels use the bit-string convention: label bit 0 is
/// the **most significant** bit of `words[0]` (matching how trie edge
/// strings are packed), so positions count from the string start.
#[inline]
fn label_chunk(words: &[u64], pos: u64, take: u64) -> u64 {
    debug_assert!((1..=64).contains(&take));
    let w = (pos / 64) as usize;
    let o = pos % 64;
    let hi = words[w] << o;
    let have = 64 - o;
    let v = if take > have && w + 1 < words.len() {
        hi | (words[w + 1] >> have)
    } else {
        hi
    };
    v >> (64 - take)
}

/// Write a right-aligned `take ≤ 64`-bit chunk at label bit `pos`
/// (MSB-first convention, target bits must be zero).
fn label_set(words: &mut [u64], pos: u64, v: u64, take: u64) {
    debug_assert!((1..=64).contains(&take));
    let left = v << (64 - take);
    let w = (pos / 64) as usize;
    let o = pos % 64;
    words[w] |= left >> o;
    if o + take > 64 {
        words[w + 1] |= left << (64 - o);
    }
}

/// Read `take ≤ 64` bits of the encoded stream starting at bit `pos`
/// (LSB-first within each word — the wire stream convention, distinct
/// from the MSB-first label convention above).
#[inline]
fn word_at(words: &[u64], pos: u64, take: u64) -> u64 {
    debug_assert!((1..=64).contains(&take));
    let w = (pos / 64) as usize;
    let o = pos % 64;
    let lo = words[w] >> o;
    let have = 64 - o;
    let v = if take > have && w + 1 < words.len() {
        lo | (words[w + 1] << have)
    } else {
        lo
    };
    if take == 64 {
        v
    } else {
        v & ((1u64 << take) - 1)
    }
}

/// Bit-level encoder for one message group (`WIRE_FORMAT.md` §"Frames
/// and groups").
///
/// One `Enc` encodes one *group*: all messages of one direction
/// (CPU→PIM or PIM→CPU) for one module in one BSP round. Frames are
/// appended with [`begin_frame`](Enc::begin_frame) /
/// [`end_frame`](Enc::end_frame); each frame is padded to a 64-bit word
/// boundary so per-frame word counts are well-defined (fault injection
/// and selective retransmit index *encoded* words per frame). Delta and
/// label stream state persists across the frames of a group and resets
/// with the next group.
#[derive(Clone, Debug, Default)]
pub struct Enc {
    buf: Vec<u64>,
    bits: u64,
    frame_start: u64,
    frames: u64,
    last: [u64; stream::N_DELTA],
    labels: [(Vec<u64>, u64); stream::N_LABEL],
}

impl Enc {
    /// Fresh encoder with all stream state zeroed (a group boundary).
    pub fn new() -> Self {
        Enc::default()
    }

    /// Append `n ≤ 64` raw bits (the low bits of `v`, LSB first).
    pub fn put_bits(&mut self, v: u64, n: u32) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let v = if n == 64 { v } else { v & ((1u64 << n) - 1) };
        let o = (self.bits % 64) as u32;
        if o == 0 {
            self.buf.push(v);
        } else {
            *self.buf.last_mut().expect("offset implies a word") |= v << o;
            if o + n > 64 {
                self.buf.push(v >> (64 - o));
            }
        }
        self.bits += n as u64;
    }

    /// Append one raw 64-bit word (used for incompressible hash/CRC
    /// payloads — `WIRE_FORMAT.md` §"Raw words").
    pub fn put_word(&mut self, v: u64) {
        self.put_bits(v, 64);
    }

    /// Append an LEB128 varint: 7 value bits per 8-bit group, the high
    /// bit flagging continuation (`WIRE_FORMAT.md` §"Varints").
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let g = v & 0x7f;
            v >>= 7;
            if v == 0 {
                self.put_bits(g, 8);
                return;
            }
            self.put_bits(g | 0x80, 8);
        }
    }

    /// Append a zig-zag-folded signed varint.
    pub fn put_signed(&mut self, v: i64) {
        self.put_varint(zigzag(v));
    }

    /// Append `v` delta-coded against the previous value of stream `s`
    /// (`WIRE_FORMAT.md` §"Delta streams"). Streams start at 0 on every
    /// group boundary.
    pub fn put_delta(&mut self, s: usize, v: u64) {
        let d = v.wrapping_sub(self.last[s]) as i64;
        self.last[s] = v;
        self.put_signed(d);
    }

    /// Append a bit-packed label: varint length followed by the raw bits
    /// (`WIRE_FORMAT.md` §"Labels"). `len` is in bits; `words` holds them
    /// MSB-first — label bit 0 is the most-significant bit of `words[0]`,
    /// matching `BitStr`'s packing — as [`Dec::get_label`] returns them.
    pub fn put_label(&mut self, words: &[u64], len: u64) {
        self.put_varint(len);
        self.put_label_bits(words, 0, len);
    }

    /// Append a label with shared-prefix elimination against label
    /// stream `s`: varint shared-prefix length, varint suffix length,
    /// then only the suffix bits (`WIRE_FORMAT.md` §"Shared-prefix
    /// elimination"). The stream's reference label becomes this label.
    pub fn put_label_shared(&mut self, s: usize, words: &[u64], len: u64) {
        let (ref_words, ref_len) = &self.labels[s];
        let shared = label_lcp(ref_words, *ref_len, words, len);
        self.put_varint(shared);
        self.put_varint(len - shared);
        self.put_label_bits(words, shared, len);
        let keep = (len as usize).div_ceil(64);
        let mut stored = words[..keep.min(words.len())].to_vec();
        stored.resize(keep, 0);
        self.labels[s] = (stored, len);
    }

    fn put_label_bits(&mut self, words: &[u64], from: u64, to: u64) {
        let mut i = from;
        while i < to {
            let take = (to - i).min(64);
            self.put_bits(label_chunk(words, i, take), take as u32);
            i += take;
        }
    }

    /// Append `n` opaque payload words (all zero) in one step
    /// (`WIRE_FORMAT.md` §"Opaque frames"). Used by the default compact
    /// encoding of message types without a structural schema: a varint
    /// size header followed by this placeholder keeps the metered size
    /// honest without inventing field layouts.
    pub fn put_opaque_words(&mut self, n: u64) {
        let end = self.bits + 64 * n;
        self.buf.resize((end as usize).div_ceil(64), 0);
        self.bits = end;
    }

    /// Mark the start of a frame. Frames may not nest.
    pub fn begin_frame(&mut self) {
        self.frame_start = self.bits;
    }

    /// Pad the current frame to a word boundary and return its size in
    /// 64-bit words. Word alignment is what gives every frame an exact
    /// word count for metering, fault-word indexing and selective
    /// retransmit.
    pub fn end_frame(&mut self) -> u64 {
        let used = self.bits - self.frame_start;
        let pad = (64 - (self.bits % 64)) % 64;
        if pad > 0 {
            self.put_bits(0, pad as u32);
        }
        self.frames += 1;
        (used + pad).div_ceil(64)
    }

    /// Total encoded size so far, in words.
    pub fn total_words(&self) -> u64 {
        self.bits.div_ceil(64)
    }

    /// Frames encoded so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The encoded group, one `u64` per wire word (trailing bits zero).
    pub fn words(&self) -> &[u64] {
        &self.buf
    }
}

/// Bit-level decoder, the mirror of [`Enc`] (`WIRE_FORMAT.md` §"Frames
/// and groups").
///
/// A `Dec` reads one group and replays the same delta/label stream
/// state the encoder built up, so fields decode to the original values
/// as long as frames are read in group order with the same schema.
#[derive(Clone, Debug)]
pub struct Dec<'a> {
    buf: &'a [u64],
    pos: u64,
    last: [u64; stream::N_DELTA],
    labels: [(Vec<u64>, u64); stream::N_LABEL],
}

impl<'a> Dec<'a> {
    /// Decoder over an encoded group, stream state zeroed.
    pub fn new(buf: &'a [u64]) -> Self {
        Dec {
            buf,
            pos: 0,
            last: [0; stream::N_DELTA],
            labels: Default::default(),
        }
    }

    /// Read `n ≤ 64` raw bits.
    pub fn get_bits(&mut self, n: u32) -> Result<u64, CodecError> {
        if n == 0 {
            return Ok(0);
        }
        if self.pos + n as u64 > self.buf.len() as u64 * 64 {
            return Err(CodecError::UnexpectedEnd);
        }
        let v = word_at(self.buf, self.pos, n as u64);
        self.pos += n as u64;
        Ok(v)
    }

    /// Read one raw 64-bit word.
    pub fn get_word(&mut self) -> Result<u64, CodecError> {
        self.get_bits(64)
    }

    /// Read an LEB128 varint.
    pub fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for g in 0..10 {
            let b = self.get_bits(8)?;
            v |= (b & 0x7f) << (7 * g);
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::VarintOverflow)
    }

    /// Read a zig-zag-folded signed varint.
    pub fn get_signed(&mut self) -> Result<i64, CodecError> {
        Ok(unzigzag(self.get_varint()?))
    }

    /// Read a delta-coded value from stream `s`.
    pub fn get_delta(&mut self, s: usize) -> Result<u64, CodecError> {
        let d = self.get_signed()?;
        let v = self.last[s].wrapping_add(d as u64);
        self.last[s] = v;
        Ok(v)
    }

    /// Read a bit-packed label; returns `(words, len_bits)` MSB-first
    /// (label bit 0 in the most-significant bit of `words[0]`).
    pub fn get_label(&mut self) -> Result<(Vec<u64>, u64), CodecError> {
        let len = self.get_varint()?;
        let mut words = vec![0u64; (len as usize).div_ceil(64)];
        self.read_label_bits(&mut words, 0, len)?;
        Ok((words, len))
    }

    /// Read a shared-prefix-eliminated label from label stream `s`.
    pub fn get_label_shared(&mut self, s: usize) -> Result<(Vec<u64>, u64), CodecError> {
        let shared = self.get_varint()?;
        let suffix = self.get_varint()?;
        let len = shared + suffix;
        let (ref_words, ref_len) = &self.labels[s];
        if shared > *ref_len {
            return Err(CodecError::UnexpectedEnd);
        }
        let mut words = vec![0u64; (len as usize).div_ceil(64)];
        // copy the shared prefix from the stream's reference label
        let mut i = 0u64;
        while i < shared {
            let take = (shared - i).min(64);
            let v = label_chunk(ref_words, i, take);
            label_set(&mut words, i, v, take);
            i += take;
        }
        self.read_label_bits(&mut words, shared, len)?;
        self.labels[s] = (words.clone(), len);
        Ok((words, len))
    }

    fn read_label_bits(&mut self, words: &mut [u64], from: u64, to: u64) -> Result<(), CodecError> {
        let mut i = from;
        while i < to {
            let take = (to - i).min(64);
            let v = self.get_bits(take as u32)?;
            label_set(words, i, v, take);
            i += take;
        }
        Ok(())
    }

    /// Mark the start of a frame (no-op today; paired for symmetry and
    /// future framing assertions).
    pub fn begin_frame(&mut self) {}

    /// Skip the current frame's padding up to the next word boundary.
    pub fn end_frame(&mut self) -> Result<(), CodecError> {
        let pad = (64 - (self.pos % 64)) % 64;
        if pad > 0 {
            let z = self.get_bits(pad as u32)?;
            if z != 0 {
                return Err(CodecError::UnexpectedEnd);
            }
        }
        Ok(())
    }

    /// Current read position in bits (diagnostics).
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_and_sizes() {
        let mut enc = Enc::new();
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            enc.put_varint(v);
        }
        assert_eq!(
            enc.total_words(),
            ((1 + 1 + 1 + 2 + 2 + 3 + 10) * 8u64).div_ceil(64)
        );
        let mut dec = Dec::new(enc.words());
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            assert_eq!(dec.get_varint().unwrap(), v);
        }
    }

    #[test]
    fn signed_and_delta_roundtrip() {
        let mut enc = Enc::new();
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            enc.put_signed(v);
        }
        let seq = [5u64, 7, 6, 6, 1000, 3];
        for &v in &seq {
            enc.put_delta(stream::TAG, v);
        }
        let mut dec = Dec::new(enc.words());
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            assert_eq!(dec.get_signed().unwrap(), v);
        }
        for &v in &seq {
            assert_eq!(dec.get_delta(stream::TAG).unwrap(), v);
        }
    }

    #[test]
    fn delta_streams_are_independent() {
        let mut enc = Enc::new();
        enc.put_delta(stream::NODE_ID, 100);
        enc.put_delta(stream::DEPTH, 7);
        enc.put_delta(stream::NODE_ID, 101);
        let mut dec = Dec::new(enc.words());
        assert_eq!(dec.get_delta(stream::NODE_ID).unwrap(), 100);
        assert_eq!(dec.get_delta(stream::DEPTH).unwrap(), 7);
        assert_eq!(dec.get_delta(stream::NODE_ID).unwrap(), 101);
    }

    #[test]
    fn labels_roundtrip() {
        // labels are MSB-first: bit 0 lives in the top bit of words[0]
        let mut enc = Enc::new();
        enc.put_label(&[], 0);
        enc.put_label(&[0b101 << 61], 3);
        let long: Vec<u64> = vec![0xdead_beef_cafe_f00d, 0x1234 << 48];
        enc.put_label(&long, 80);
        let mut dec = Dec::new(enc.words());
        assert_eq!(dec.get_label().unwrap(), (vec![], 0));
        assert_eq!(dec.get_label().unwrap(), (vec![0b101 << 61], 3));
        assert_eq!(
            dec.get_label().unwrap(),
            (vec![0xdead_beef_cafe_f00d, 0x1234 << 48], 80)
        );
    }

    #[test]
    fn shared_prefix_elimination_shrinks_and_roundtrips() {
        // 96-bit labels sharing a 95-bit prefix; MSB-first packing puts
        // word 1's 32 live bits in its high half
        let a: Vec<u64> = vec![0x0123_4567_89ab_cdef, 0x8123_4567 << 32];
        let mut b = a.clone();
        b[1] ^= 1 << 32; // differ only in the final bit (label bit 95)
        let mut plain = Enc::new();
        plain.put_label(&a, 96);
        plain.put_label(&b, 96);
        let mut shared = Enc::new();
        shared.put_label_shared(stream::LABEL_REM, &a, 96);
        shared.put_label_shared(stream::LABEL_REM, &b, 96);
        assert!(shared.total_words() < plain.total_words());
        let mut dec = Dec::new(shared.words());
        assert_eq!(dec.get_label_shared(stream::LABEL_REM).unwrap(), (a, 96));
        assert_eq!(dec.get_label_shared(stream::LABEL_REM).unwrap(), (b, 96));
    }

    #[test]
    fn frames_align_to_words() {
        let mut enc = Enc::new();
        enc.begin_frame();
        enc.put_varint(5);
        assert_eq!(enc.end_frame(), 1);
        enc.begin_frame();
        enc.put_word(u64::MAX);
        enc.put_bits(1, 1);
        assert_eq!(enc.end_frame(), 2);
        assert_eq!(enc.total_words(), 3);
        let mut dec = Dec::new(enc.words());
        dec.begin_frame();
        assert_eq!(dec.get_varint().unwrap(), 5);
        dec.end_frame().unwrap();
        dec.begin_frame();
        assert_eq!(dec.get_word().unwrap(), u64::MAX);
        assert_eq!(dec.get_bits(1).unwrap(), 1);
        dec.end_frame().unwrap();
    }

    #[test]
    fn negotiation_picks_min_known_version() {
        assert_eq!(WireCodec::negotiate(2, 2), WireCodec::Compact);
        assert_eq!(WireCodec::negotiate(2, 1), WireCodec::Plain);
        assert_eq!(WireCodec::negotiate(1, 2), WireCodec::Plain);
        assert_eq!(WireCodec::negotiate(99, 2), WireCodec::Compact);
        assert_eq!(WireCodec::negotiate(0, 2), WireCodec::Plain);
        assert_eq!(WireCodec::default(), WireCodec::Plain);
        assert_eq!(WireCodec::Compact.version(), 2);
        assert_eq!(WireCodec::from_version(3), None);
    }

    #[test]
    fn decode_errors_are_reported() {
        // 8 continuation groups exhaust one word, then the stream ends
        let mut dec = Dec::new(&[0x8080_8080_8080_8080u64]);
        assert_eq!(dec.get_varint(), Err(CodecError::UnexpectedEnd));
        let mut dec = Dec::new(&[]);
        assert_eq!(dec.get_word(), Err(CodecError::UnexpectedEnd));
        let all_cont = [0x8080_8080_8080_8080u64, 0x8080_8080_8080_8080];
        let mut dec = Dec::new(&all_cont);
        assert_eq!(dec.get_varint(), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn bit_packing_is_lsb_first_and_dense() {
        let mut enc = Enc::new();
        enc.put_bits(0b1, 1);
        enc.put_bits(0b10, 2);
        enc.put_bits(0xffff_ffff_ffff_ffff, 64);
        assert_eq!(enc.total_words(), 2);
        assert_eq!(enc.words()[0] & 0b111, 0b101);
        let mut dec = Dec::new(enc.words());
        assert_eq!(dec.get_bits(1).unwrap(), 1);
        assert_eq!(dec.get_bits(2).unwrap(), 0b10);
        assert_eq!(dec.get_bits(64).unwrap(), u64::MAX);
    }
}
