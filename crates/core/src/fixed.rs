//! Integer helpers for deterministic parameter derivation.

/// `ceil(log2(x))` for `x ≥ 1`, in pure integers — the `lg` every
/// `K_B = log² P`-style parameter derivation needs, without the
/// `(x as f64).log2().ceil()` detour through libm.
pub const fn ceil_log2(x: usize) -> u64 {
    if x <= 1 {
        return 0;
    }
    (usize::BITS - (x - 1).leading_zeros()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_matches_definition() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(17), 5);
        assert_eq!(ceil_log2(1 << 20), 20);
        for p in 2..4096usize {
            assert_eq!(ceil_log2(p), (p as f64).log2().ceil() as u64, "p={p}");
        }
    }
}
