pub fn hot_share(total: u64) -> u64 {
    (total as f64 * 0.05) as u64
}
