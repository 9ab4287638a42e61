// lint: allow(span-balance) — nothing here opens a span
pub fn quiet() {}
