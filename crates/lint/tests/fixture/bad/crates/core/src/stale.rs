// lint: allow(float-determinism) — nothing here uses a float
pub fn quiet() {}
