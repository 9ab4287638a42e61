pub fn meter(m: &mut Metrics) {
    m.resident_stats_mut().host_matches += 1;
}
