//! PIM-trie tuning parameters (the paper's `K_B`, `K_SMB`, push-pull
//! threshold and hash width).

use crate::error::PimTrieError;
use crate::fixed::ceil_log2;
use bitstr::hash::HashWidth;

/// Configuration of a [`PimTrie`](crate::PimTrie).
#[derive(Clone, Debug)]
pub struct PimTrieConfig {
    /// Number of PIM modules, the paper's `P`.
    pub p: usize,
    /// Block size upper bound in words — `K_B = Θ(log² P)` (§4.2).
    pub k_b: u64,
    /// Small-meta-block bound — `K_SMB = log² P` (§4.4.1).
    pub k_smb: usize,
    /// Push-pull threshold for query pieces in words — `log⁴ P`
    /// (Algorithm 5, line 3). Pieces larger than this pull data to the CPU
    /// instead of being pushed.
    pub push_threshold: u64,
    /// Digest width compared by hash tables (§4.4.3). Narrow widths force
    /// collisions and exercise verification; `HashWidth::FULL` for normal
    /// use.
    pub hash_width: HashWidth,
    /// Seed for the hash base and block placement.
    pub seed: u64,
    /// Run every CPU↔PIM message inside a CRC-64-sealed envelope and
    /// recover from injected wire faults and module crashes (see
    /// `wire_guard`). Off by default: the unguarded build's metering is
    /// bit-identical to a build without the fault subsystem.
    pub fault_tolerance: bool,
    /// With `fault_tolerance` on: how many extra recovery rounds one
    /// logical round may spend re-requesting corrupt or missing replies
    /// before the operation fails with
    /// [`RecoveryExhausted`](PimTrieError::RecoveryExhausted). Must cover
    /// the longest scheduled module outage.
    pub max_round_retries: u32,
    /// Wire codec metered on every CPU↔PIM message (`WIRE_FORMAT.md` in
    /// the repository root holds the normative frame layouts).
    /// [`WireCodec::Plain`](pim_sim::WireCodec)
    /// — the default — prices each message at its legacy `wire_words`
    /// figure and adds no rounds: counters stay byte-identical to a
    /// build without the codec subsystem.
    /// [`Compact`](pim_sim::WireCodec::Compact) is negotiated in one
    /// broadcast round at construction and meters the structural
    /// encoding instead: varint/delta-coded ids, bit-packed edge labels
    /// and shared-prefix elimination within each round's per-module
    /// message group.
    ///
    /// Paper: §7.3 measures words/op as the cost metric; the compact
    /// codec attacks that floor without changing any algorithm.
    pub codec: pim_sim::WireCodec,
}

impl PimTrieConfig {
    /// The paper's parameter choices for `p` modules: `K_B = log² P`,
    /// `K_SMB = log² P`, push threshold `log⁴ P`.
    /// [`PimTrieConfig::validate`] refuses `p = 0`.
    pub fn for_modules(p: usize) -> Self {
        let lg = ceil_log2(p.max(2));
        let lg2 = (lg * lg).max(16);
        PimTrieConfig {
            p,
            k_b: lg2,
            k_smb: lg2 as usize,
            push_threshold: (lg2 * lg2).max(64),
            hash_width: HashWidth::FULL,
            seed: 0x9122_7cc1_dead_beef,
            fault_tolerance: false,
            max_round_retries: 8,
            codec: pim_sim::WireCodec::Plain,
        }
    }

    /// Select the wire codec metered on every CPU↔PIM message (see
    /// [`PimTrieConfig::codec`]). `Plain` reproduces the legacy metering
    /// bit-for-bit; `Compact` costs one negotiation round at
    /// construction.
    pub fn with_codec(mut self, codec: pim_sim::WireCodec) -> Self {
        self.codec = codec;
        self
    }

    /// Enable (or disable) the sealed-wire fault-tolerance protocol.
    pub fn with_fault_tolerance(mut self, on: bool) -> Self {
        self.fault_tolerance = on;
        self
    }

    /// Override the per-round recovery retry budget.
    pub fn with_max_round_retries(mut self, retries: u32) -> Self {
        self.max_round_retries = retries;
        self
    }

    /// Check the configuration for degenerate values. `PimTrie::try_new`
    /// runs this; the panicking constructors assert it.
    pub fn validate(&self) -> Result<(), PimTrieError> {
        if self.p < 1 {
            return Err(PimTrieError::BadConfig("p must be at least 1".into()));
        }
        if self.k_b < 8 {
            return Err(PimTrieError::BadConfig(
                "K_B below 8 words is degenerate".into(),
            ));
        }
        if self.k_smb < 1 {
            return Err(PimTrieError::BadConfig("K_SMB must be at least 1".into()));
        }
        Ok(())
    }

    /// Override the seed (placement + hash base).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the digest width (§4.4.3 collision experiments).
    pub fn with_hash_width(mut self, width: HashWidth) -> Self {
        self.hash_width = width;
        self
    }

    /// Override the block size bound `K_B` (ablation experiments).
    /// [`PimTrieConfig::validate`] refuses one below 8 words.
    pub fn with_k_b(mut self, k_b: u64) -> Self {
        self.k_b = k_b;
        self
    }

    /// Override the push-pull threshold (ablations; `0` = always pull
    /// metadata, `u64::MAX` = always push).
    pub fn with_push_threshold(mut self, t: u64) -> Self {
        self.push_threshold = t;
        self
    }

    /// Word budget of the host-resident top of the meta-block tree:
    /// `P · K_SMB²` — `P log⁴ P` at the paper's parameters, one push
    /// threshold's worth per module — in Plain wire words of pulled
    /// entries. At `P = 64` that is 82 944 words, ≈ 384 meta-blocks at the
    /// `K_SMB`-entry bound the admission estimate uses, filled from the
    /// root down (DESIGN.md, deviations). Host memory, not PIM space.
    pub fn resident_meta_words(&self) -> u64 {
        let k = self.k_smb as u64;
        (self.p as u64).saturating_mul(k.saturating_mul(k))
    }

    /// The minimum batch size for the balance guarantees,
    /// `Ω(P log⁵ P)` scaled by `c` (Theorem 4.3). Informational: smaller
    /// batches still work, only the whp balance claim weakens.
    pub fn min_balanced_batch(&self) -> usize {
        let lg = ceil_log2(self.p.max(2));
        (self.p as u64 * lg.pow(5)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_with_p() {
        let c4 = PimTrieConfig::for_modules(4);
        let c256 = PimTrieConfig::for_modules(256);
        assert!(c256.k_b >= c4.k_b);
        assert!(c256.push_threshold >= c256.k_b);
        assert!(c4.k_b >= 16);
    }

    #[test]
    fn builder_overrides() {
        let c = PimTrieConfig::for_modules(8)
            .with_seed(7)
            .with_k_b(64)
            .with_push_threshold(10);
        assert_eq!(c.seed, 7);
        assert_eq!(c.k_b, 64);
        assert_eq!(c.push_threshold, 10);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(PimTrieConfig::for_modules(8).validate().is_ok());
        let mut c = PimTrieConfig::for_modules(8);
        c.p = 0;
        assert!(c.validate().is_err());
        let mut c = PimTrieConfig::for_modules(8);
        c.k_smb = 0;
        assert!(c.validate().is_err());
        let c = PimTrieConfig::for_modules(8).with_fault_tolerance(true);
        assert!(c.fault_tolerance && c.validate().is_ok());
    }

    #[test]
    fn degenerate_builders_fail_try_new_with_bad_config() {
        for cfg in [
            PimTrieConfig::for_modules(8).with_k_b(4),
            PimTrieConfig::for_modules(0),
        ] {
            let r = crate::PimTrie::try_new(cfg);
            assert!(matches!(r, Err(PimTrieError::BadConfig(_))));
        }
    }

    #[test]
    fn codec_defaults_to_plain() {
        let c = PimTrieConfig::for_modules(8);
        assert_eq!(c.codec, pim_sim::WireCodec::Plain);
        let on = PimTrieConfig::for_modules(8).with_codec(pim_sim::WireCodec::Compact);
        assert_eq!(on.codec, pim_sim::WireCodec::Compact);
        assert!(on.validate().is_ok());
    }

    #[test]
    fn min_batch_grows_superlinearly() {
        let a = PimTrieConfig::for_modules(4).min_balanced_batch();
        let b = PimTrieConfig::for_modules(64).min_balanced_batch();
        assert!(b > 16 * a / 4);
    }
}
