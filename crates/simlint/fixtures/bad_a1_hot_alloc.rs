//! A1 fixture: heap allocation on the engine hot path. `step` reaches
//! `deliver` (per-event box + label) and `drain` (per-iteration growth
//! of an unreserved buffer).

pub fn step(xs: &[u64]) {
    deliver(7);
    drain(xs);
}

fn deliver(x: u64) {
    let _b = Box::new(x);
    let _label = format!("pkt-{x}");
}

fn drain(xs: &[u64]) {
    let mut out = Vec::new();
    for x in xs.iter() {
        out.push(*x + 1);
    }
    let _ = out;
}
