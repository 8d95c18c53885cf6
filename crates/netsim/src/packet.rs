//! Packets and the generation-indexed slab pool.
//!
//! Packets are the hottest allocation in the simulator. Instead of boxing
//! each one and circulating the boxes through the event queue, all packets
//! live in one contiguous slab owned by the pool; the event queue carries
//! copyable [`PacketHandle`]s (index + generation). Events shrink from a
//! heap pointer to 8 inline bytes, the per-packet `Box::new` disappears
//! from the hot path entirely, and packet storage becomes cache-dense.
//!
//! Generations make handle misuse detectable: freeing a slot bumps its
//! generation, so a stale handle (or a double free) no longer matches.
//! Under `sim-audit` a mismatch panics at the offending call; in release
//! builds a double free is ignored (never corrupting the free list) and
//! stale accesses are caught by `debug_assert`.

use dcsim::Nanos;
use faircc::IntStack;

use crate::ids::{FlowId, NodeId, PortNo};

/// What kind of frame this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Payload-carrying data segment of a flow.
    Data,
    /// Per-packet acknowledgement, carrying the echoed INT stack, ECN echo,
    /// and send timestamp.
    Ack,
    /// DCQCN Congestion Notification Packet.
    Cnp,
    /// Go-back-N negative acknowledgement: `seq` carries the receiver's
    /// expected byte offset; the sender rewinds there (lossy mode only).
    Nack,
}

/// One frame in flight.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Frame kind.
    pub kind: PacketKind,
    /// The flow this frame belongs to.
    pub flow: FlowId,
    /// Node the frame is travelling from (sender of this frame).
    pub src: NodeId,
    /// Node the frame is travelling to.
    pub dst: NodeId,
    /// For `Data`: byte offset of the first payload byte.
    /// For `Ack`: cumulative acknowledgement (all bytes `< seq` received).
    pub seq: u64,
    /// Bytes on the wire (payload + headers for data, header-only for
    /// ACK/CNP).
    pub wire_size: u32,
    /// Payload bytes carried (`Data`) or newly acknowledged (`Ack`).
    pub payload: u32,
    /// When the original data packet left the sender (echoed in the ACK so
    /// the sender can compute an RTT).
    pub sent_at: Nanos,
    /// ECN congestion-experienced mark (set by RED, echoed by the ACK).
    pub ecn: bool,
    /// Number of switch egress ports traversed so far (Swift's hop count).
    pub hops: u8,
    /// Fault injection: the `(node, port)` whose wire this frame is
    /// currently propagating on, stamped at transmit start so a
    /// mid-flight link-down can kill it on arrival. `None` outside
    /// fault-injection runs (stamping is gated to keep the hot path
    /// untouched when faults are off).
    pub via: Option<(NodeId, PortNo)>,
    /// INT telemetry accumulated on the forward path.
    pub int: IntStack,
}

impl Packet {
    /// A blank packet (pool backing storage).
    fn blank() -> Self {
        Packet {
            kind: PacketKind::Data,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(0),
            seq: 0,
            wire_size: 0,
            payload: 0,
            sent_at: Nanos::ZERO,
            ecn: false,
            hops: 0,
            via: None,
            int: IntStack::new(),
        }
    }

    /// Turn this (data) packet into its acknowledgement in place,
    /// preserving the INT stack, ECN mark, hop count, and send timestamp,
    /// and reversing the direction.
    pub fn into_ack(&mut self, ack_wire_size: u32) {
        debug_assert_eq!(self.kind, PacketKind::Data);
        self.kind = PacketKind::Ack;
        std::mem::swap(&mut self.src, &mut self.dst);
        self.seq += self.payload as u64; // cumulative ack past this segment
        self.payload = self.wire_size_payload();
        self.wire_size = ack_wire_size;
    }

    fn wire_size_payload(&self) -> u32 {
        self.payload
    }
}

/// A copyable reference to a packet in a [`PacketPool`] slab.
///
/// The generation ties the handle to one lifetime of its slot: freeing the
/// slot bumps the slot's generation, so every handle issued before the
/// free stops matching. 8 bytes, `Copy` — cheap enough to sit inline in
/// the event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHandle {
    idx: u32,
    gen: u32,
}

/// One slab slot: the packet plus the generation of its current lifetime.
#[derive(Debug)]
struct Slot {
    pkt: Packet,
    gen: u32,
}

/// A generation-indexed slab of packets with a LIFO free list.
///
/// [`alloc`] hands out a handle to a blanked slot (recycling the most
/// recently freed one when available), [`free`] returns a slot and bumps
/// its generation. The slab never shrinks; its high-water mark equals the
/// peak number of packets simultaneously in flight.
///
/// [`alloc`]: PacketPool::alloc
/// [`free`]: PacketPool::free
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<Slot>,
    /// Indices of free slots, popped LIFO — the same reuse order as the
    /// old boxed free list, so allocation patterns (and anything derived
    /// from them) are unchanged.
    free: Vec<u32>,
    recycled: u64,
    /// Peak live-slot count ever observed (published to metrics).
    live_hwm: u64,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        PacketPool::default()
    }

    /// Acquire a handle to a blank packet slot.
    pub fn alloc(&mut self) -> PacketHandle {
        let h = match self.free.pop() {
            Some(idx) => {
                self.recycled += 1;
                let slot = &mut self.slots[idx as usize];
                slot.pkt = Packet::blank();
                PacketHandle { idx, gen: slot.gen }
            }
            None => {
                let idx =
                    u32::try_from(self.slots.len()).expect("packet pool holds under 2^32 slots");
                if self.slots.len() == self.slots.capacity() {
                    // The slab only grows while the live-packet high-water
                    // mark is still rising; chunked reservation makes a
                    // growing burst pay one reallocation, not one per packet.
                    self.slots.reserve(256);
                }
                self.slots.push(Slot {
                    pkt: Packet::blank(),
                    gen: 0,
                });
                PacketHandle { idx, gen: 0 }
            }
        };
        self.live_hwm = self.live_hwm.max(self.live());
        h
    }

    /// Return a slot to the pool, invalidating every outstanding handle
    /// to it. A double free (or a stale handle) panics under `sim-audit`;
    /// without the feature it is ignored, so the free list can never hold
    /// the same slot twice.
    pub fn free(&mut self, h: PacketHandle) {
        let slot = &mut self.slots[h.idx as usize];
        dcsim::audit_assert_eq!(
            slot.gen,
            h.gen,
            "packet pool double free or stale handle on slot {}",
            h.idx
        );
        if slot.gen != h.gen {
            return;
        }
        slot.gen = slot.gen.wrapping_add(1);
        if self.free.len() == self.free.capacity() {
            // The free list can hold at most one entry per slab slot, so
            // this settles at the slab's own high-water capacity.
            self.free.reserve(256);
        }
        self.free.push(h.idx);
    }

    /// Read a live packet.
    pub fn get(&self, h: PacketHandle) -> &Packet {
        let slot = &self.slots[h.idx as usize];
        dcsim::audit_assert_eq!(
            slot.gen,
            h.gen,
            "stale packet handle read on slot {}",
            h.idx
        );
        debug_assert_eq!(slot.gen, h.gen, "stale packet handle on slot {}", h.idx);
        &slot.pkt
    }

    /// Mutate a live packet.
    pub fn get_mut(&mut self, h: PacketHandle) -> &mut Packet {
        let slot = &mut self.slots[h.idx as usize];
        dcsim::audit_assert_eq!(
            slot.gen,
            h.gen,
            "stale packet handle write on slot {}",
            h.idx
        );
        debug_assert_eq!(slot.gen, h.gen, "stale packet handle on slot {}", h.idx);
        &mut slot.pkt
    }

    /// (fresh slot allocations, recycled grabs) — instrumentation.
    pub fn stats(&self) -> (u64, u64) {
        (self.slots.len() as u64, self.recycled)
    }

    /// Slots currently sitting in the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Slots currently held by callers (in flight through the event queue).
    ///
    /// Every slot was created exactly once and is either free or live, so
    /// `live = slots − free_len` — the invariant the pool unit tests pin
    /// down.
    pub fn live(&self) -> u64 {
        (self.slots.len() - self.free.len()) as u64
    }

    /// Peak simultaneous live-slot count — the slab's working-set size.
    pub fn live_hwm(&self) -> u64 {
        self.live_hwm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::{BitRate, Bytes};
    use faircc::IntHop;

    #[test]
    fn into_ack_reverses_and_accumulates() {
        let mut p = Packet::blank();
        p.kind = PacketKind::Data;
        p.src = NodeId(1);
        p.dst = NodeId(2);
        p.seq = 5000;
        p.payload = 1000;
        p.wire_size = 1000;
        p.sent_at = Nanos::from_ns(42);
        p.ecn = true;
        p.int.push(IntHop {
            qlen: Bytes::new(77),
            tx_bytes: 1,
            ts: Nanos::from_ns(9),
            rate: BitRate::from_gbps(100),
        });

        p.into_ack(60);
        assert_eq!(p.kind, PacketKind::Ack);
        assert_eq!(p.src, NodeId(2));
        assert_eq!(p.dst, NodeId(1));
        assert_eq!(p.seq, 6000); // cumulative
        assert_eq!(p.wire_size, 60);
        assert_eq!(p.sent_at, Nanos::from_ns(42)); // echoed for RTT
        assert!(p.ecn);
        assert_eq!(p.int.len(), 1); // telemetry preserved
    }

    #[test]
    fn handles_are_copyable_and_small() {
        // The whole point of the slab: an event payload that fits inline.
        assert_eq!(std::mem::size_of::<PacketHandle>(), 8);
        let mut pool = PacketPool::new();
        let h = pool.alloc();
        let h2 = h; // Copy, no move-out
        assert_eq!(h, h2);
        pool.free(h);
    }

    #[test]
    fn pool_recycles() {
        let mut pool = PacketPool::new();
        let a = pool.alloc();
        let b = pool.alloc();
        pool.free(a);
        pool.free(b);
        let _c = pool.alloc();
        let _d = pool.alloc();
        let (alloc, recyc) = pool.stats();
        assert_eq!(alloc, 2);
        assert_eq!(recyc, 2);
    }

    #[test]
    fn recycled_packets_are_blank() {
        let mut pool = PacketPool::new();
        let h = pool.alloc();
        let p = pool.get_mut(h);
        p.ecn = true;
        p.seq = 99;
        p.int.push(IntHop::default());
        pool.free(h);
        let fresh = pool.alloc();
        let q = pool.get(fresh);
        assert!(!q.ecn);
        assert_eq!(q.seq, 0);
        assert!(q.int.is_empty());
    }

    #[test]
    fn alloc_after_free_recycles_and_moves_counters() {
        let mut pool = PacketPool::new();
        let a = pool.alloc();
        assert_eq!(pool.stats(), (1, 0));
        pool.free(a);
        assert_eq!(pool.free_len(), 1);
        let _b = pool.alloc();
        // The slot came from the free list, not a fresh slab grow.
        assert_eq!(pool.stats(), (1, 1));
        assert_eq!(pool.free_len(), 0);
    }

    #[test]
    fn recycled_slots_come_back_fully_blanked() {
        let mut pool = PacketPool::new();
        let h = pool.alloc();
        let p = pool.get_mut(h);
        // Dirty every field.
        p.kind = PacketKind::Nack;
        p.flow = FlowId(7);
        p.src = NodeId(1);
        p.dst = NodeId(2);
        p.seq = 42;
        p.wire_size = 999;
        p.payload = 123;
        p.sent_at = Nanos::from_ns(55);
        p.ecn = true;
        p.hops = 9;
        p.via = Some((NodeId(3), PortNo(1)));
        p.int.push(IntHop::default());
        pool.free(h);
        let fresh = pool.alloc();
        let q = pool.get(fresh);
        assert_eq!(q.kind, PacketKind::Data);
        assert_eq!(q.flow, FlowId(0));
        assert_eq!(q.src, NodeId(0));
        assert_eq!(q.dst, NodeId(0));
        assert_eq!(q.seq, 0);
        assert_eq!(q.wire_size, 0);
        assert_eq!(q.payload, 0);
        assert_eq!(q.sent_at, Nanos::ZERO);
        assert!(!q.ecn);
        assert_eq!(q.hops, 0);
        assert_eq!(q.via, None);
        assert!(q.int.is_empty());
    }

    #[test]
    fn freeing_a_slot_invalidates_older_handles() {
        let mut pool = PacketPool::new();
        let a = pool.alloc();
        pool.free(a);
        let b = pool.alloc(); // recycles the same slot, new generation
        assert_ne!(a, b);
        // Without sim-audit the stale free is a no-op: the free list must
        // not end up holding `b`'s slot while `b` is still live.
        if !dcsim::audit::ENABLED {
            pool.free(a);
            assert_eq!(pool.free_len(), 0);
            assert_eq!(pool.live(), 1);
        }
        pool.free(b);
    }

    #[test]
    fn live_count_and_high_water_mark_track_a_simulated_burst() {
        // Simulate an incast-like burst: grab a wave of packets, return a
        // ragged subset, grab again — at every point the number of slots
        // held by the "simulation" equals pool.live(), and the high-water
        // mark never decays.
        let mut pool = PacketPool::new();
        let mut in_flight = Vec::new();
        let mut peak = 0u64;
        for round in 0..8 {
            for _ in 0..(16 + round * 3) {
                in_flight.push(pool.alloc());
                assert_eq!(pool.live(), in_flight.len() as u64);
            }
            peak = peak.max(pool.live());
            assert_eq!(pool.live_hwm(), peak);
            // Deliver (return) roughly two-thirds of the wave.
            let keep = in_flight.len() / 3;
            for h in in_flight.drain(keep..) {
                pool.free(h);
            }
            assert_eq!(pool.live(), in_flight.len() as u64);
        }
        let (alloc, recyc) = pool.stats();
        assert!(recyc > 0, "bursts after the first must recycle");
        // slots counts distinct slots ever created; everything not in
        // the free list is still held.
        assert_eq!(alloc, pool.live() + pool.free_len() as u64);
        // Drain completely: nothing live, every slot back in the pool.
        for h in in_flight.drain(..) {
            pool.free(h);
        }
        assert_eq!(pool.live(), 0);
        assert_eq!(alloc, pool.free_len() as u64);
        // The mark survives the drain: it records the peak working set.
        assert_eq!(pool.live_hwm(), peak);
    }
}
