//! Local unit definitions for the fixture set.
//!
//! This file is named `units.rs` deliberately: unit-definition files are
//! exempt from U1 (they are where raw construction and `.0` access
//! legitimately live), mirroring the real `dcsim` layout. The
//! other fixtures reference these types through the workspace symbol
//! table the analyzer builds over the whole fixture tree.

pub struct Nanos(pub u64);
pub struct Bytes(pub u64);
pub struct BitRate(pub u64);

impl Nanos {
    pub const ZERO: Nanos = Nanos(0);

    pub const fn from_ns(ns: u64) -> Nanos {
        Nanos(ns)
    }

    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl Bytes {
    pub const ZERO: Bytes = Bytes(0);

    pub const fn new(b: u64) -> Bytes {
        Bytes(b)
    }

    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl BitRate {
    pub const fn from_bps(bps: u64) -> BitRate {
        BitRate(bps)
    }

    pub const fn as_u64(self) -> u64 {
        self.0
    }
}
