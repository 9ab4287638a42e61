// lint: allow(float-determinism) — rendered for humans only, never compared
pub fn shown(total: u64) -> f64 {
    // lint: allow(float-determinism) — the same presentational conversion
    total as f64
}

pub fn one_panic(v: Option<u32>) -> u32 {
    v.unwrap()
}
