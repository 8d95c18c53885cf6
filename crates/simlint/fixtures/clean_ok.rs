// Fixture: idiomatic sim code — the scanner must stay silent, including on
// rule-like tokens inside strings and comments (2.5 as u64, DetRng::new).
use std::collections::BTreeMap;

fn routes() -> BTreeMap<u32, u32> {
    let mut m = BTreeMap::new();
    m.insert(1, 2);
    m
}

fn label() -> &'static str {
    "2.5 as u64, rng.stream(2) — strings do not trip rules"
}

fn delay(total_ps: u64) -> u64 {
    // Integer-only casts carry no float evidence and are fine.
    let ns = (total_ps / 1_000) as u32;
    ns as u64
}
