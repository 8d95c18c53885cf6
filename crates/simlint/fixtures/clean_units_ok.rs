//! Clean fixture: unit arithmetic done the sanctioned way. Must produce
//! zero findings under the full rule set.

use crate::units::{Bytes, Nanos};

pub fn same_unit_add(a: Nanos, b: Nanos) -> Nanos {
    a + b // same unit on both sides: fine (and not in O1 scope here)
}

pub fn named_constructors() -> (Nanos, Bytes) {
    (Nanos::from_ns(80), Bytes::new(1000))
}

pub fn sanctioned_escape(t: Nanos) -> u64 {
    t.as_u64() // the named escape hatch, not `.0`
}

pub fn exhaustive(kind: Option<u64>) -> u64 {
    // Option is std, not a workspace protocol enum: `_` is fine here.
    match kind {
        Some(v) => v,
        _ => 0,
    }
}
