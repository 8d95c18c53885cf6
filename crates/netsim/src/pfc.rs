//! Priority Flow Control (PFC) — the lossless-Ethernet pause mechanism.
//!
//! Real RoCEv2 fabrics rely on PFC to guarantee losslessness: when a
//! switch's buffer fills past XOFF it sends PAUSE frames to the upstream
//! ports feeding that buffer, and resumes with XON once the buffer drains.
//! The protocols evaluated in the paper are designed to keep queues far
//! below PFC thresholds (that is the point of HPCC's "near zero queues"),
//! so PFC should be *inert* in every experiment — this module exists to
//! verify that claim (the `ablation-pfc` bench) and to bound queue growth
//! in pathological configurations.
//!
//! ## Model
//!
//! Our switches are output-queued, so congestion is observed at egress
//! queues. We map PFC onto that as follows:
//!
//! * when egress queue `P` at switch `N` crosses `xoff`, `N` sends PAUSE to
//!   every neighbour **except `P`'s own peer** — those are the nodes whose
//!   traffic can feed `P`. Pausing `P`'s peer would throttle the drain
//!   direction and recreate the classic PFC circular-wait deadlock;
//! * when `P` drains below `xon`, `N` sends RESUME to the same set;
//! * **hosts never assert PAUSE**: a host NIC's egress queue is fed only by
//!   its own flows, and real NICs backpressure the sending queue pair
//!   locally rather than pausing the fabric (the queue lives in host
//!   memory in our model);
//! * a port may be paused by several congested queues at once, so pause is
//!   a *counter*, not a flag ([`PauseCounter`]): PAUSE increments, RESUME
//!   decrements, and the port transmits only at zero.
//!
//! Pause/resume frames propagate with the link's propagation delay and are
//! not queued behind data (real PFC frames are highest priority).

use dcsim::Bytes;

/// PFC watermarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfcConfig {
    /// Egress backlog at which PAUSE is asserted.
    pub xoff: Bytes,
    /// Backlog below which RESUME is sent. Must be `< xoff` for
    /// hysteresis.
    pub xon: Bytes,
}

impl PfcConfig {
    /// Typical headroom for 100 Gbps fabrics: XOFF at 512 KB, XON at
    /// 384 KB (per-port buffers in the HPCC artifact's switch model are in
    /// the hundreds of KB to a few MB).
    pub fn default_100g() -> Self {
        PfcConfig {
            xoff: Bytes::from_kb(512),
            xon: Bytes::from_kb(384),
        }
    }

    /// Validate the watermarks.
    pub fn validate(&self) {
        assert!(
            self.xon < self.xoff,
            "PFC requires xon < xoff (got xon={}, xoff={})",
            self.xon,
            self.xoff
        );
        assert!(self.xoff > Bytes::ZERO, "xoff must be positive");
    }
}

/// Reference-counted pause state for one port.
///
/// Multiple congested egress queues can pause the same upstream port;
/// each PAUSE must be matched by its RESUME before the port may transmit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PauseCounter(u32);

impl PauseCounter {
    /// Apply a PAUSE (`+1`) or RESUME (`-1`).
    pub fn apply(&mut self, pause: bool) {
        if pause {
            self.0 += 1;
        } else {
            debug_assert!(self.0 > 0, "unbalanced PFC resume");
            dcsim::audit_assert!(
                self.0 > 0,
                "PFC pairing: RESUME with no outstanding PAUSE on this port"
            );
            self.0 = self.0.saturating_sub(1);
        }
    }

    /// Whether the port is currently paused.
    pub fn is_paused(&self) -> bool {
        self.0 > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_watermarks_are_sane() {
        let c = PfcConfig::default_100g();
        c.validate();
        assert!(c.xon < c.xoff);
    }

    #[test]
    #[should_panic(expected = "xon < xoff")]
    fn inverted_watermarks_rejected() {
        PfcConfig {
            xoff: Bytes::new(100),
            xon: Bytes::new(100),
        }
        .validate();
    }

    #[test]
    fn pause_counter_nests() {
        let mut c = PauseCounter::default();
        assert!(!c.is_paused());
        c.apply(true);
        c.apply(true); // second congested queue
        assert!(c.is_paused());
        c.apply(false);
        assert!(c.is_paused()); // one source still congested
        c.apply(false);
        assert!(!c.is_paused());
    }
}
