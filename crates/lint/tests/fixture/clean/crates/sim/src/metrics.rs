pub struct ResidentStats {
    pub host_matches: u64,
}

pub struct Metrics {
    resident: ResidentStats,
}

impl Metrics {
    pub fn resident_stats_mut(&mut self) -> &mut ResidentStats {
        &mut self.resident
    }
}
