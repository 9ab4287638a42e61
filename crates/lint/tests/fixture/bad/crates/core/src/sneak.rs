pub fn sneak() {
    let mut st = ResidentStats::default();
    st.host_matches += 1;
}
