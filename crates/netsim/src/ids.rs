//! Index newtypes for the network arenas.
//!
//! All simulator state lives in flat vectors; these wrappers keep host,
//! port, and flow indices from being mixed up at compile time while staying
//! `Copy` and four bytes wide.

/// Index of a node (host or switch) in the network arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id of arena index `i`.
    pub fn from_idx(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index fits in u32"))
    }

    /// The raw index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Index of a port within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortNo(pub u16);

impl PortNo {
    /// The number of port `i` of a node.
    pub fn from_idx(i: usize) -> Self {
        PortNo(u16::try_from(i).expect("port index fits in u16"))
    }

    /// The raw index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Index of a flow in the network's flow table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

impl FlowId {
    /// The raw index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        assert_eq!(NodeId(7).idx(), 7);
        assert_eq!(PortNo(3).idx(), 3);
        assert_eq!(FlowId(11).idx(), 11);
        assert_eq!(NodeId::from_idx(7), NodeId(7));
        assert_eq!(PortNo::from_idx(3), PortNo(3));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        // BTreeSet rather than HashSet: the default RandomState hasher is
        // banned workspace-wide (clippy `disallowed_types`), and the point
        // here is only that ids implement Ord + Eq for use as deterministic
        // keys.
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(NodeId(1));
        assert!(s.contains(&NodeId(1)));
        assert!(NodeId(1) < NodeId(2));
    }
}
