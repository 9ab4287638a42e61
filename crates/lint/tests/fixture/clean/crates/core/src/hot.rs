pub fn hot_share(share: Fx, total: u64) -> u64 {
    share.mul_u64(total)
}
