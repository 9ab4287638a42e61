// lint: allow(float-determinism) — rendered for humans only, never compared
pub fn shown(total: u64) -> f64 { total as f64 }

pub fn halved(total: u64) -> f64 { total as f64 / 2.0 } // lint: allow(float-determinism)

pub fn risky(v: Option<u32>, w: Option<u32>) -> u32 {
    v.unwrap() + w.expect("w missing")
}

// a commented-out float must not count: let x: f64 = 0.5;
pub const RAW: &str = r#"let x: f64 = 0.5;"#;

#[cfg(test)]
mod tests {
    #[test]
    fn exempt() {
        let x: f64 = 0.5;
        assert!(x > 0.0);
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
