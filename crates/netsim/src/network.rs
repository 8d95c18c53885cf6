//! The network world: arenas of nodes, ports, and flows, plus the event
//! handlers that move packets between them.

use dcsim::{Bytes, DetRng, Nanos, Scheduler, Stream, World};
use faircc::{AckFeedback, CongestionControl, IntHop};
use simtrace::{Subsystem, TraceEvent, Tracer};

use crate::fault::{FaultPlan, FaultStats, LossState, RtoBackoff};
use crate::flow::{Flow, FlowSpec};
use crate::ids::{FlowId, NodeId, PortNo};
use crate::monitor::{FctRecord, Monitor, MonitorConfig};
use crate::packet::{PacketHandle, PacketKind, PacketPool};
use crate::pfc::PfcConfig;
use crate::port::{Port, RedConfig};
use crate::routing::{filter_adjacency, Adjacency, RoutingTable};

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host with exactly one NIC port.
    Host,
    /// A switch with one port per attached link.
    Switch,
}

/// One node in the arena.
pub struct Node {
    /// Host or switch.
    pub kind: NodeKind,
    /// Egress ports, one per attached link direction.
    pub ports: Vec<Port>,
}

/// Global simulator parameters.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum data-packet payload (the paper's MTU: 1000 bytes).
    pub mtu: u32,
    /// Wire size of ACK and CNP frames.
    pub ack_wire_size: u32,
    /// Minimum spacing between CNPs per flow (DCQCN: 50 µs).
    pub cnp_interval: Nanos,
    /// Scenario seed (drives RED marking and any other randomness).
    pub seed: u64,
    /// Optional PFC pause model.
    pub pfc: Option<PfcConfig>,
    /// Finite per-port data buffer on *switch* egress ports (`None` =
    /// deep-buffer lossless abstraction). When set, overflowing data
    /// packets are tail-dropped and flows recover with RoCE-style
    /// go-back-N (receiver NACKs, sender rewinds) plus a retransmission
    /// timeout for trailing losses.
    pub switch_buffer: Option<dcsim::Bytes>,
    /// *Base* retransmission timeout: if no cumulative-ACK progress for
    /// this long while data is outstanding, the sender rewinds to the
    /// last acknowledged byte. Armed in lossy (finite-buffer) mode and
    /// whenever a fault plan is active.
    pub rto: Nanos,
    /// Exponential RTO backoff policy applied on top of [`rto`]
    /// (multiplier, cap, deterministic jitter).
    ///
    /// [`rto`]: NetConfig::rto
    pub rto_backoff: RtoBackoff,
    /// Deterministic fault-injection plan. The default (empty) plan is
    /// zero-cost: no RNG draws, no extra events, no per-packet work.
    pub faults: FaultPlan,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            mtu: 1000,
            ack_wire_size: 60,
            cnp_interval: Nanos::from_micros(50),
            seed: 1,
            pfc: None,
            switch_buffer: None,
            rto: Nanos::from_micros(100),
            rto_backoff: RtoBackoff::default(),
            faults: FaultPlan::none(),
        }
    }
}

/// Simulation events (see crate docs for the lifecycle).
pub enum Event {
    /// A flow's start time arrived.
    FlowStart(FlowId),
    /// A flow's pacing timer fired.
    FlowTrySend(FlowId),
    /// A port finished serializing its current packet.
    TxDone {
        /// Transmitting node.
        node: NodeId,
        /// Transmitting port.
        port: PortNo,
    },
    /// A packet's last bit reached `node`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Handle to the packet in the network's slab pool — 8 inline
        /// bytes, so moving this event never chases (or frees) a heap
        /// pointer.
        pkt: PacketHandle,
    },
    /// A congestion-control timer fired for a flow.
    CcTimer(FlowId),
    /// PFC pause/resume applied to a port (after propagation).
    PfcSet {
        /// Node owning the port.
        node: NodeId,
        /// The port to (un)pause.
        port: PortNo,
        /// New pause state.
        paused: bool,
    },
    /// Retransmission-timeout check for a flow (lossy mode only).
    Rto(FlowId),
    /// Fault injection: one link direction changes up/down state.
    LinkSet {
        /// Node owning the affected egress port.
        node: NodeId,
        /// The affected port.
        port: PortNo,
        /// New link state.
        up: bool,
    },
    /// Periodic measurement tick.
    Sample,
}

/// Builder for a [`Network`].
pub struct NetBuilder {
    kinds: Vec<NodeKind>,
    ports: Vec<Vec<Port>>,
    red_on_switches: Option<RedConfig>,
}

impl Default for NetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetBuilder {
    /// An empty topology.
    pub fn new() -> Self {
        NetBuilder {
            kinds: Vec::new(),
            ports: Vec::new(),
            red_on_switches: None,
        }
    }

    /// Add an end host. Hosts must end up with exactly one link.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Add a switch.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.kinds.push(kind);
        self.ports.push(Vec::new());
        NodeId::from_idx(self.kinds.len() - 1)
    }

    /// Connect two nodes with a symmetric full-duplex link.
    pub fn link(&mut self, a: NodeId, b: NodeId, rate: dcsim::BitRate, prop: Nanos) {
        assert!(a != b, "self-links are not allowed");
        let pa = PortNo::from_idx(self.ports[a.idx()].len());
        let pb = PortNo::from_idx(self.ports[b.idx()].len());
        self.ports[a.idx()].push(Port::new((b, pb), rate, prop));
        self.ports[b.idx()].push(Port::new((a, pa), rate, prop));
    }

    /// Enable RED/ECN marking on every switch egress port (DCQCN runs).
    pub fn red_on_switches(&mut self, red: RedConfig) {
        self.red_on_switches = Some(red);
    }

    /// Finalize: compute routing and produce the network.
    pub fn build(mut self, cfg: NetConfig, monitor: MonitorConfig) -> Network {
        if let Some(pfc) = &cfg.pfc {
            pfc.validate();
        }
        let mut hosts = Vec::new();
        for (i, k) in self.kinds.iter().enumerate() {
            match k {
                NodeKind::Host => {
                    assert_eq!(
                        self.ports[i].len(),
                        1,
                        "host {i} must have exactly one link, has {}",
                        self.ports[i].len()
                    );
                    hosts.push(NodeId::from_idx(i));
                }
                NodeKind::Switch => {
                    assert!(!self.ports[i].is_empty(), "switch {i} has no links");
                    for p in &mut self.ports[i] {
                        if let Some(red) = self.red_on_switches {
                            p.red = Some(red);
                        }
                        p.buffer_limit = cfg.switch_buffer.map(|b| b.as_u64());
                    }
                }
            }
        }
        let adj: Adjacency = self
            .ports
            .iter()
            .map(|ps| {
                ps.iter()
                    .enumerate()
                    .map(|(i, p)| (PortNo::from_idx(i), p.peer.0))
                    .collect()
            })
            .collect();
        let routes = RoutingTable::compute(&adj, &hosts);
        let rng = DetRng::new(cfg.seed);
        let red_rng = rng.stream(Stream::Red);
        let fault_rng = rng.stream(Stream::Fault);
        let faults_active = !cfg.faults.is_empty();
        // Attach loss models to both directions of each faulted link, and
        // validate that every fault references a real link.
        for lf in &cfg.faults.links {
            for (x, y) in [(lf.a, lf.b), (lf.b, lf.a)] {
                let Some(i) = self.ports[x.idx()].iter().position(|p| p.peer.0 == y) else {
                    panic!(
                        "fault plan references nonexistent link {:?}-{:?}",
                        lf.a, lf.b
                    );
                };
                if let Some(model) = lf.loss {
                    self.ports[x.idx()][i].loss = Some(LossState::new(model));
                }
            }
        }
        // Keep a pristine copy of the routes while faults may rewrite
        // the live table: ideal FCTs must not move when links flap.
        let routes_full = faults_active.then(|| routes.clone());
        let nodes = self
            .kinds
            .into_iter()
            .zip(self.ports)
            .map(|(kind, ports)| Node { kind, ports })
            .collect();
        Network {
            cfg,
            nodes,
            flows: Vec::new(),
            routes,
            routes_full,
            adjacency: adj,
            monitor: Monitor::new(monitor),
            pool: PacketPool::new(),
            red_rng,
            fault_rng,
            faults_active,
            fault_stats: FaultStats::default(),
            hosts,
            dropped_data: 0,
            tracer: Tracer::off(),
        }
    }
}

/// The complete network state: implements [`dcsim::World`].
pub struct Network {
    /// Global parameters.
    pub cfg: NetConfig,
    nodes: Vec<Node>,
    flows: Vec<Flow>,
    routes: RoutingTable,
    /// Pristine routes over the no-faults topology (`None` when no fault
    /// plan is active): the `ideal_fct` denominator view, while `routes`
    /// tracks live link state.
    routes_full: Option<RoutingTable>,
    adjacency: Adjacency,
    /// Measurement collector.
    pub monitor: Monitor,
    pool: PacketPool,
    red_rng: DetRng,
    /// Dedicated fault-injection RNG stream — loss draws and RTO jitter
    /// never touch the traffic RNG streams.
    fault_rng: DetRng,
    faults_active: bool,
    fault_stats: FaultStats,
    hosts: Vec<NodeId>,
    dropped_data: u64,
    tracer: Tracer,
}

impl Network {
    /// Register a flow; it starts at `spec.start` once [`prime`]d.
    ///
    /// [`prime`]: Network::prime
    pub fn add_flow(&mut self, spec: FlowSpec, cc: Box<dyn CongestionControl>) -> FlowId {
        assert_eq!(
            self.nodes[spec.src.idx()].kind,
            NodeKind::Host,
            "flow source must be a host"
        );
        assert_eq!(
            self.nodes[spec.dst.idx()].kind,
            NodeKind::Host,
            "flow destination must be a host"
        );
        let id = FlowId(u32::try_from(self.flows.len()).expect("flow index fits in u32"));
        self.flows.push(Flow::new(id, spec, cc));
        id
    }

    /// Push the initial events (flow starts, first sample tick) onto the
    /// queue (any [`Scheduler`] implementation). Call once after all flows
    /// are added, before running.
    pub fn prime(&self, q: &mut impl Scheduler<Event>) {
        for f in &self.flows {
            q.push(f.spec.start, Event::FlowStart(f.id));
        }
        // Fault plan: schedule every link-state transition, for both
        // directions of the link (a flap cuts the full-duplex link whole).
        for lf in &self.cfg.faults.links {
            if let Some(flap) = lf.flap {
                for (t, up) in flap.transitions() {
                    for (x, y) in [(lf.a, lf.b), (lf.b, lf.a)] {
                        if let Some((node, port)) = self.port_towards(x, y) {
                            q.push(t, Event::LinkSet { node, port, up });
                        }
                    }
                }
            }
        }
        if let Some(iv) = self.monitor.cfg.sample_interval {
            q.push(iv, Event::Sample);
        }
    }

    /// Immutable flow access.
    pub fn flow(&self, id: FlowId) -> &Flow {
        &self.flows[id.idx()]
    }

    /// Number of flows registered.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of flows that have completed.
    pub fn finished_count(&self) -> usize {
        self.monitor.fcts.len()
    }

    /// Whether every registered flow has completed.
    pub fn all_finished(&self) -> bool {
        self.finished_count() == self.flows.len()
    }

    /// A node's port table (for instrumentation).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// The ECMP-pinned egress port from `node` toward `dst` for `flow`
    /// (exposed for route validation and instrumentation).
    pub fn route_port(&self, node: NodeId, dst: NodeId, flow: FlowId) -> PortNo {
        self.routes.pick(node, dst, flow)
    }

    /// Iterate over all nodes (for the stats module).
    pub fn nodes_iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Total data packets tail-dropped network-wide (0 in lossless mode).
    /// Fault-injection drops are counted separately in [`fault_stats`].
    ///
    /// [`fault_stats`]: Network::fault_stats
    pub fn dropped_data_packets(&self) -> u64 {
        self.dropped_data
    }

    /// Fault-injection counters (wire losses, link-down drops, reroutes,
    /// RTO rewinds). All zero when no fault plan is active.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Progress signature for the stall watchdog: `(total acked bytes,
    /// finished flows, flows started by now)`. A signature unchanged over
    /// a full watchdog horizon while started flows remain unfinished
    /// means the run is stalled.
    pub fn progress_signature(&self, now: Nanos) -> (u64, u64, u64) {
        let acked: u64 = self.flows.iter().map(|f| f.acked).sum();
        let started = self.flows.iter().filter(|f| f.spec.start <= now).count() as u64;
        (acked, self.monitor.fcts.len() as u64, started)
    }

    /// Flows started by `now` that have not finished — the suspects a
    /// stall watchdog reports.
    pub fn unfinished_started(&self, now: Nanos) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| f.spec.start <= now && f.finished.is_none())
            .map(|f| f.id)
            .collect()
    }

    /// Install a tracer (replacing the default disabled one). Call before
    /// running; the tracer observes every subsequent event.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The active tracer (for reading events/metrics in place).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Remove and return the tracer (for export after a run), leaving a
    /// disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Publish end-of-run counters and histograms from every subsystem
    /// into the tracer's metrics registry: per-port traffic counters, the
    /// monitor's FCT histogram, and each flow's congestion-control state.
    /// No-op unless the tracer is at counters level or above.
    pub fn publish_metrics(&mut self) {
        if !self.tracer.counters_enabled() {
            return;
        }
        let reg = self.tracer.metrics_mut();
        reg.counter_set("net.dropped_data_packets", self.dropped_data);
        reg.counter_set("net.flows", self.flows.len() as u64);
        reg.counter_set("net.flows_finished", self.monitor.fcts.len() as u64);
        let (pool_slots, pool_recycled) = self.pool.stats();
        reg.counter_set("net.pool.slots", pool_slots);
        reg.counter_set("net.pool.recycled", pool_recycled);
        reg.counter_set("net.pool.live_hwm", self.pool.live_hwm());
        if self.faults_active {
            reg.counter_set("net.fault.wire_drops", self.fault_stats.wire_drops);
            reg.counter_set(
                "net.fault.link_down_drops",
                self.fault_stats.link_down_drops,
            );
            reg.counter_set("net.fault.reroutes", self.fault_stats.reroutes);
            reg.counter_set("net.fault.rto_fires", self.fault_stats.rto_fires);
            let mut key = String::with_capacity(32);
            for f in &self.flows {
                if f.rto_count > 0 {
                    key.clear();
                    use std::fmt::Write as _;
                    let _ = write!(key, "flow.{}.rto_count", f.id.0);
                    reg.counter_set(&key, f.rto_count);
                }
            }
        }
        for (ni, n) in self.nodes.iter().enumerate() {
            for (pi, p) in n.ports.iter().enumerate() {
                p.publish_metrics(NodeId::from_idx(ni), PortNo::from_idx(pi), reg);
            }
        }
        self.monitor.publish_metrics(reg);
        for f in &self.flows {
            f.cc.publish_metrics(reg);
        }
    }

    /// Find the egress port on `a` whose link leads to `b`.
    pub fn port_towards(&self, a: NodeId, b: NodeId) -> Option<(NodeId, PortNo)> {
        self.nodes[a.idx()]
            .ports
            .iter()
            .position(|p| p.peer.0 == b)
            .map(|i| (a, PortNo::from_idx(i)))
    }

    /// The theoretical minimum FCT for a flow on an idle network:
    /// store-and-forward pipeline of its packets along its (ECMP-pinned)
    /// path, plus the return of the final ACK. This is the denominator of
    /// the paper's *FCT slowdown*.
    pub fn ideal_fct(&self, id: FlowId) -> Nanos {
        let f = &self.flows[id.idx()];
        let (src, dst) = (f.spec.src, f.spec.dst);
        // Walk the pinned path — over the pristine (no-faults) routes:
        // the slowdown denominator must not move when links flap.
        let routes = self.routes_full.as_ref().unwrap_or(&self.routes);
        // Fabric diameter is tiny (leaf-spine paths are <= 4 hops), so one
        // exact-size reservation covers every topology we build.
        let mut path: Vec<(dcsim::BitRate, Nanos)> = Vec::with_capacity(8);
        let mut cur = src;
        while cur != dst {
            let port = routes.pick(cur, dst, id);
            let p = &self.nodes[cur.idx()].ports[port.idx()];
            path.push((p.rate, p.prop));
            cur = p.peer.0;
        }
        let size = f.spec.size.as_u64();
        let mtu = self.cfg.mtu as u64;
        let n_pkts = size.div_ceil(mtu);
        let first_pkt = size.min(mtu);
        // First packet pipelines through every hop...
        let mut t = Nanos::ZERO;
        for (rate, prop) in &path {
            t += rate.serialization_delay(Bytes::new(first_pkt)) + *prop;
        }
        // ...the rest are clocked out at the bottleneck.
        if n_pkts > 1 {
            let bottleneck = path.iter().map(|(r, _)| *r).min().expect("non-empty path");
            let rest = size - first_pkt;
            t += bottleneck.serialization_delay(Bytes::new(rest));
        }
        // Final ACK returns over the reverse path.
        for (rate, prop) in &path {
            t += rate.serialization_delay(Bytes::new(self.cfg.ack_wire_size as u64)) + *prop;
        }
        t
    }

    // ---- internal mechanics ----

    fn try_send(&mut self, fi: usize, now: Nanos, q: &mut impl Scheduler<Event>) {
        loop {
            // Phase 1: decide under a scoped flow borrow.
            let action = {
                let f = &mut self.flows[fi];
                if f.finished.is_some() || f.remaining() == 0 {
                    break;
                }
                let lim = f.cc.limits();
                if (f.inflight() as f64) >= lim.window_bytes {
                    break; // window closed; an ACK will reopen it
                }
                if now < f.next_allowed {
                    if !f.pace_armed {
                        f.pace_armed = true;
                        q.push(f.next_allowed, Event::FlowTrySend(f.id));
                    }
                    break;
                }
                let sz = u32::try_from(f.remaining()).map_or(self.cfg.mtu, |r| r.min(self.cfg.mtu));
                let seq = f.sent;
                f.sent += sz as u64;
                f.cc.on_send(now, Bytes::new(sz as u64));
                debug_assert!(
                    lim.pacing > dcsim::BitRate::ZERO,
                    "pacing rate must be positive"
                );
                let delta = lim.pacing.serialization_delay(Bytes::new(sz as u64));
                f.next_allowed = f.next_allowed.max(now) + delta;
                (f.id, f.spec.src, f.spec.dst, seq, sz)
            };
            // Phase 2: build and enqueue the packet.
            let (id, src, dst, seq, sz) = action;
            let h = self.pool.alloc();
            let pkt = self.pool.get_mut(h);
            pkt.kind = PacketKind::Data;
            pkt.flow = id;
            pkt.src = src;
            pkt.dst = dst;
            pkt.seq = seq;
            pkt.wire_size = sz;
            pkt.payload = sz;
            pkt.sent_at = now;
            self.enqueue_at(src, PortNo(0), h, now, q);
        }
        self.arm_cc_timer(fi, now, q);
        if self.cfg.switch_buffer.is_some() || self.faults_active {
            self.arm_rto(fi, now, q);
        }
    }

    fn arm_rto(&mut self, fi: usize, now: Nanos, q: &mut impl Scheduler<Event>) {
        {
            let f = &self.flows[fi];
            if f.finished.is_some() || f.inflight() == 0 || f.rto_armed.is_some() {
                return;
            }
        }
        let level = self.flows[fi].rto_level;
        let timeout = self.cfg.rto_backoff.timeout(self.cfg.rto, level);
        let jitter = self.cfg.rto_backoff.jitter(timeout, &mut self.fault_rng);
        let t = now + timeout + jitter;
        let f = &mut self.flows[fi];
        f.rto_armed = Some(t);
        q.push(t, Event::Rto(f.id));
    }

    fn on_rto(&mut self, fi: usize, now: Nanos, q: &mut impl Scheduler<Event>) {
        let backoff = self.cfg.rto_backoff;
        let base = self.cfg.rto;
        let rewind = {
            let f = &mut self.flows[fi];
            if f.rto_armed != Some(now) {
                return; // stale
            }
            f.rto_armed = None;
            if f.finished.is_some() || f.inflight() == 0 {
                return;
            }
            if now.saturating_sub(f.last_progress) >= backoff.timeout(base, f.rto_level) {
                // Stalled: everything past `acked` may be lost. Rewind,
                // count, tell the CC, and back off the next timeout.
                f.sent = f.acked;
                f.last_progress = now;
                f.rto_count += 1;
                f.rto_level = f.rto_level.saturating_add(1);
                f.cc.on_rto(now);
                true
            } else {
                false
            }
        };
        if rewind {
            self.fault_stats.rto_fires += 1;
            if self.tracer.wants(Subsystem::Fault) {
                let f = &self.flows[fi];
                self.tracer.record(
                    now,
                    TraceEvent::RtoBackoff {
                        flow: f.id.0,
                        level: f.rto_level,
                        timeout_ns: backoff.timeout(base, f.rto_level).as_u64(),
                    },
                );
            }
        }
        self.try_send(fi, now, q);
        self.arm_rto(fi, now, q);
    }

    fn enqueue_at(
        &mut self,
        node: NodeId,
        port: PortNo,
        pkt: PacketHandle,
        now: Nanos,
        q: &mut impl Scheduler<Event>,
    ) {
        let pfc = self.cfg.pfc;
        let trace_port = self.tracer.wants(Subsystem::Port);
        let (tr_flow, tr_bytes) = {
            let p = self.pool.get(pkt);
            (p.flow, p.wire_size)
        };
        let n = &mut self.nodes[node.idx()];
        let is_switch = n.kind == NodeKind::Switch;
        let p = &mut n.ports[port.idx()];
        let marked_before = p.ecn_marked();
        let start = match p.enqueue(pkt, &mut self.pool, &mut self.red_rng) {
            Ok(start) => start,
            Err(dropped) => {
                // Tail drop (or a dead link): the flow recovers via
                // go-back-N (receiver NACK on the sequence gap, or the
                // RTO for tail losses).
                if p.link_up {
                    self.dropped_data += 1;
                } else {
                    self.fault_stats.link_down_drops += 1;
                }
                self.tracer.record(
                    now,
                    TraceEvent::PortDrop {
                        node: node.0,
                        port: port.0,
                        flow: tr_flow.0,
                        bytes: tr_bytes,
                    },
                );
                self.pool.free(dropped);
                return;
            }
        };
        if trace_port {
            let qbytes = p.qbytes();
            self.tracer.record(
                now,
                TraceEvent::PortEnqueue {
                    node: node.0,
                    port: port.0,
                    flow: tr_flow.0,
                    bytes: tr_bytes,
                    qbytes,
                },
            );
            if p.ecn_marked() > marked_before {
                self.tracer.record(
                    now,
                    TraceEvent::EcnMark {
                        node: node.0,
                        port: port.0,
                        flow: tr_flow.0,
                        qbytes,
                    },
                );
            }
        }
        // PFC: did this enqueue push the port into the over-XOFF regime?
        // Only switches assert pause (see `pfc` module docs).
        let mut assert_pause = false;
        if let Some(c) = pfc {
            if is_switch && !p.pfc_over && p.qbytes() >= c.xoff.as_u64() {
                p.pfc_over = true;
                assert_pause = true;
            }
        }
        if assert_pause {
            self.broadcast_pause(node, port, true, now, q);
        }
        if start {
            self.start_tx(node, port, now, q);
        }
    }

    fn start_tx(&mut self, node: NodeId, port: PortNo, now: Nanos, q: &mut impl Scheduler<Event>) {
        let pfc = self.cfg.pfc;
        let trace_port = self.tracer.wants(Subsystem::Port);
        let mut release = false;
        {
            let n = &mut self.nodes[node.idx()];
            let is_switch = n.kind == NodeKind::Switch;
            let p = &mut n.ports[port.idx()];
            if p.busy || p.is_paused() || !p.has_backlog() {
                return;
            }
            let (pkt, ser) = p.begin_tx().expect("backlog checked");
            let (flow, wire) = {
                let fr = self.pool.get_mut(pkt);
                if fr.kind == PacketKind::Data && p.stamp_int {
                    if is_switch {
                        fr.hops += 1;
                    }
                    fr.int.push(IntHop {
                        qlen: Bytes::new(p.qbytes()),
                        tx_bytes: p.tx_bytes(),
                        ts: now,
                        rate: p.rate,
                    });
                }
                (fr.flow, fr.wire_size)
            };
            p.busy = true;
            // PFC: the over-XOFF regime ends when the queue drains below XON.
            if let Some(c) = pfc {
                if p.pfc_over && p.qbytes() < c.xon.as_u64() {
                    p.pfc_over = false;
                    release = true;
                }
            }
            self.tracer.record(
                now,
                TraceEvent::PortDequeue {
                    node: node.0,
                    port: port.0,
                    flow: flow.0,
                    bytes: wire,
                    qbytes: p.qbytes(),
                },
            );
            // Fault injection: the wire may eat this frame; surviving
            // frames are stamped with their link so a mid-flight
            // link-down can kill them on arrival. All gated so runs
            // without a fault plan do zero extra work and zero draws.
            let mut lost = false;
            let mut bursty = false;
            if self.faults_active {
                if let Some(loss) = p.loss.as_mut() {
                    if loss.lose(&mut self.fault_rng) {
                        lost = true;
                        bursty = loss.in_bad();
                        p.count_wire_loss();
                    }
                }
                if !lost {
                    self.pool.get_mut(pkt).via = Some((node, port));
                }
            }
            if lost {
                // The frame occupied the wire for its serialization time
                // (the port stays busy until TxDone) but never arrives.
                q.push(now + ser, Event::TxDone { node, port });
                self.fault_stats.wire_drops += 1;
                if self.tracer.wants(Subsystem::Fault) {
                    self.tracer.record(
                        now,
                        TraceEvent::LossBurst {
                            node: node.0,
                            port: port.0,
                            flow: flow.0,
                            bytes: wire,
                            bursty,
                        },
                    );
                }
                self.pool.free(pkt);
            } else {
                // Batched drain: a run of control frames behind the head
                // (ACK/CNP/NACK bursts — a receiver NIC clocking an
                // incast) needs no per-frame egress work: control frames
                // take no INT stamp, and with PFC, faults, and port
                // tracing off there is no per-frame observer either. Each
                // frame still serializes at its exact wire time; only the
                // intermediate TxDone wakeups are elided.
                let batch = pfc.is_none() && !self.faults_active && !trace_port;
                if batch && matches!(p.head_kind(), Some(k) if k != PacketKind::Data) {
                    let mut t = now + ser;
                    q.push(
                        t + p.prop,
                        Event::Arrive {
                            node: p.peer.0,
                            pkt,
                        },
                    );
                    while matches!(p.head_kind(), Some(k) if k != PacketKind::Data) {
                        let (h, ser2) = p.begin_tx().expect("head_kind checked");
                        t += ser2;
                        q.push(
                            t + p.prop,
                            Event::Arrive {
                                node: p.peer.0,
                                pkt: h,
                            },
                        );
                    }
                    q.push(t, Event::TxDone { node, port });
                } else {
                    q.push(now + ser, Event::TxDone { node, port });
                    q.push(
                        now + ser + p.prop,
                        Event::Arrive {
                            node: p.peer.0,
                            pkt,
                        },
                    );
                }
            }
        }
        if release {
            self.broadcast_pause(node, port, false, now, q);
        }
    }

    /// Apply one direction of a link flap: cut or restore the port,
    /// flush queued frames on a cut, and recompute ECMP routes over the
    /// surviving topology (failover rerouting).
    fn on_link_set(&mut self, node: NodeId, port: PortNo, up: bool, now: Nanos) {
        let trace = self.tracer.wants(Subsystem::Fault);
        if up {
            self.nodes[node.idx()].ports[port.idx()].bring_up();
            if trace {
                self.tracer.record(
                    now,
                    TraceEvent::LinkUp {
                        node: node.0,
                        port: port.0,
                    },
                );
            }
        } else {
            let flushed = self.nodes[node.idx()].ports[port.idx()].take_down(now);
            let n_flushed =
                u32::try_from(flushed.len()).expect("a port queue holds under 2^32 frames");
            for pkt in flushed {
                self.pool.free(pkt);
            }
            self.fault_stats.link_down_drops += n_flushed as u64;
            if trace {
                self.tracer.record(
                    now,
                    TraceEvent::LinkDown {
                        node: node.0,
                        port: port.0,
                        flushed: n_flushed,
                    },
                );
            }
        }
        // Failover: recompute the ECMP routes over the links still up.
        let filtered = filter_adjacency(&self.adjacency, |n, p| {
            self.nodes[n.idx()].ports[p.idx()].link_up
        });
        self.routes = RoutingTable::compute(&filtered, &self.hosts);
        self.fault_stats.reroutes += 1;
        if trace {
            self.tracer.record(
                now,
                TraceEvent::Reroute {
                    node: node.0,
                    port: port.0,
                    up,
                },
            );
        }
    }

    /// Send PAUSE/RESUME to every neighbour except the peer of the
    /// congested port itself (that peer is the drain direction; pausing it
    /// would create the classic PFC circular wait).
    fn broadcast_pause(
        &self,
        node: NodeId,
        congested: PortNo,
        paused: bool,
        now: Nanos,
        q: &mut impl Scheduler<Event>,
    ) {
        for (i, p) in self.nodes[node.idx()].ports.iter().enumerate() {
            if i == congested.idx() {
                continue;
            }
            q.push(
                now + p.prop,
                Event::PfcSet {
                    node: p.peer.0,
                    port: p.peer.1,
                    paused,
                },
            );
        }
    }

    fn arm_cc_timer(&mut self, fi: usize, now: Nanos, q: &mut impl Scheduler<Event>) {
        let f = &mut self.flows[fi];
        if f.finished.is_some() {
            return;
        }
        if let Some(t) = f.cc.next_timer() {
            let t = t.max(now);
            if f.cc_timer_armed.is_none_or(|a| t < a) {
                f.cc_timer_armed = Some(t);
                q.push(t, Event::CcTimer(f.id));
            }
        }
    }

    fn on_cc_timer(&mut self, fi: usize, now: Nanos, q: &mut impl Scheduler<Event>) {
        {
            let f = &mut self.flows[fi];
            if f.cc_timer_armed != Some(now) {
                return; // stale duplicate
            }
            f.cc_timer_armed = None;
            match f.cc.next_timer() {
                Some(due) if due <= now => f.cc.on_timer(now),
                _ => {}
            }
        }
        self.try_send(fi, now, q);
    }

    fn deliver_to_host(
        &mut self,
        node: NodeId,
        pkt: PacketHandle,
        now: Nanos,
        q: &mut impl Scheduler<Event>,
    ) {
        let (kind, flow, seq, payload, ecn) = {
            let p = self.pool.get(pkt);
            debug_assert_eq!(
                p.dst, node,
                "packet for {:?} arrived at host {:?}: routing bug",
                p.dst, node
            );
            (p.kind, p.flow, p.seq, p.payload, p.ecn)
        };
        match kind {
            PacketKind::Data => {
                let fi = flow.idx();
                // In lossless mode delivery is strictly in order; with
                // finite buffers, gaps mean upstream drops and RoCE-style
                // go-back-N applies: out-of-order packets are discarded
                // and the receiver NACKs the expected sequence once per
                // gap.
                let lossless = self.cfg.switch_buffer.is_none() && !self.faults_active;
                enum Rx {
                    Accept { need_cnp: bool },
                    Nack { expected: u64 },
                    AckDup,
                    DiscardDup,
                }
                let action = {
                    let f = &mut self.flows[fi];
                    if seq == f.rcv_next {
                        f.rcv_next = seq + payload as u64;
                        f.last_nack_for = None;
                        Rx::Accept {
                            need_cnp: ecn && f.try_emit_cnp(now, self.cfg.cnp_interval),
                        }
                    } else if seq > f.rcv_next {
                        debug_assert!(!lossless, "sequence gap in lossless mode");
                        if f.last_nack_for != Some(f.rcv_next) {
                            f.last_nack_for = Some(f.rcv_next);
                            Rx::Nack {
                                expected: f.rcv_next,
                            }
                        } else {
                            Rx::DiscardDup
                        }
                    } else if self.faults_active {
                        // Duplicate from a go-back-N rewind. Under wire
                        // loss the original ACK may itself have died, so
                        // re-ACK the cumulative offset — the only way a
                        // sender whose final ACK was eaten learns it is
                        // done. Unreachable without faults, so lossless
                        // and tail-drop runs are untouched.
                        Rx::AckDup
                    } else {
                        // Duplicate from a go-back-N rewind: discard; the
                        // cumulative ACK below keeps the sender moving.
                        Rx::DiscardDup
                    }
                };
                match action {
                    Rx::Accept { need_cnp } => {
                        if need_cnp {
                            let src = self.flows[fi].spec.src;
                            let ch = self.pool.alloc();
                            let cnp = self.pool.get_mut(ch);
                            cnp.kind = PacketKind::Cnp;
                            cnp.flow = flow;
                            cnp.src = node;
                            cnp.dst = src;
                            cnp.wire_size = self.cfg.ack_wire_size;
                            self.enqueue_at(node, PortNo(0), ch, now, q);
                        }
                        let cumulative = self.flows[fi].rcv_next;
                        let p = self.pool.get_mut(pkt);
                        p.into_ack(self.cfg.ack_wire_size);
                        p.seq = cumulative;
                        self.enqueue_at(node, PortNo(0), pkt, now, q);
                    }
                    Rx::Nack { expected } => {
                        let src = self.flows[fi].spec.src;
                        let p = self.pool.get_mut(pkt);
                        p.kind = PacketKind::Nack;
                        p.src = node;
                        p.dst = src;
                        p.seq = expected;
                        p.payload = 0;
                        p.wire_size = self.cfg.ack_wire_size;
                        self.enqueue_at(node, PortNo(0), pkt, now, q);
                    }
                    Rx::AckDup => {
                        let cumulative = self.flows[fi].rcv_next;
                        let p = self.pool.get_mut(pkt);
                        p.into_ack(self.cfg.ack_wire_size);
                        p.seq = cumulative;
                        self.enqueue_at(node, PortNo(0), pkt, now, q);
                    }
                    Rx::DiscardDup => {
                        self.pool.free(pkt);
                    }
                }
            }
            PacketKind::Ack => {
                let fi = flow.idx();
                let (sent_at, int, hops) = {
                    let p = self.pool.get(pkt);
                    (p.sent_at, p.int, p.hops)
                };
                let (done, rec) = {
                    let f = &mut self.flows[fi];
                    let newly = seq.saturating_sub(f.acked);
                    f.acked = f.acked.max(seq);
                    // An RTO rewind can pull `sent` below a cumulative ACK
                    // that was still in flight; those bytes are delivered,
                    // so the send cursor never needs to revisit them.
                    f.sent = f.sent.max(f.acked);
                    let fb = AckFeedback {
                        now,
                        rtt: now.saturating_sub(sent_at),
                        ecn,
                        int,
                        acked: Bytes::new(newly),
                        hops,
                    };
                    f.cc.on_ack(&fb);
                    f.acks_seen += 1;
                    if self.tracer.wants_cc(f.acks_seen) {
                        let snap = f.cc.snapshot();
                        self.tracer.record(
                            now,
                            TraceEvent::CcUpdate {
                                flow: f.id.0,
                                window_bytes: snap.window_bytes,
                                rate_bps: snap.rate.as_u64(),
                                vai_bank: snap.vai_bank,
                            },
                        );
                    }
                    if f.acked >= f.spec.size.as_u64() && f.finished.is_none() {
                        f.finished = Some(now);
                        (
                            true,
                            FctRecord {
                                flow: f.id,
                                size: f.spec.size,
                                start: f.spec.start,
                                finish: now,
                            },
                        )
                    } else {
                        (
                            false,
                            FctRecord {
                                flow: f.id,
                                size: Bytes::ZERO,
                                start: Nanos::ZERO,
                                finish: Nanos::ZERO,
                            },
                        )
                    }
                };
                self.pool.free(pkt);
                if done {
                    self.tracer.record(
                        now,
                        TraceEvent::FlowFinish {
                            flow: rec.flow.0,
                            bytes: rec.size.as_u64(),
                            fct_ns: rec.fct().as_u64(),
                        },
                    );
                    self.monitor.record_fct(rec);
                } else {
                    let f = &mut self.flows[fi];
                    f.last_progress = now;
                    f.rto_level = 0; // backoff resets on ACK progress
                    self.try_send(fi, now, q);
                }
            }
            PacketKind::Nack => {
                // Go-back-N: rewind the send cursor to the receiver's
                // expected byte and retransmit from there.
                let fi = flow.idx();
                let expected = seq;
                {
                    let f = &mut self.flows[fi];
                    if f.finished.is_none() && expected < f.sent && expected >= f.acked {
                        f.sent = expected;
                        f.last_progress = now;
                    }
                }
                self.pool.free(pkt);
                self.try_send(fi, now, q);
            }
            PacketKind::Cnp => {
                let fi = flow.idx();
                self.flows[fi].cc.on_cnp(now);
                self.pool.free(pkt);
                self.try_send(fi, now, q);
            }
        }
    }
}

impl World for Network {
    type Event = Event;

    fn handle<S: Scheduler<Event>>(&mut self, now: Nanos, event: Event, q: &mut S) {
        match event {
            Event::FlowStart(f) => {
                if self.tracer.wants(Subsystem::Flow) {
                    let bytes = self.flows[f.idx()].spec.size.as_u64();
                    self.tracer
                        .record(now, TraceEvent::FlowStart { flow: f.0, bytes });
                }
                self.try_send(f.idx(), now, q)
            }
            Event::FlowTrySend(f) => {
                self.flows[f.idx()].pace_armed = false;
                self.try_send(f.idx(), now, q);
            }
            Event::TxDone { node, port } => {
                let p = &mut self.nodes[node.idx()].ports[port.idx()];
                p.busy = false;
                if p.has_backlog() && !p.is_paused() {
                    self.start_tx(node, port, now, q);
                }
            }
            Event::Arrive { node, pkt } => {
                if self.faults_active {
                    let via = self.pool.get(pkt).via;
                    if let Some((vn, vp)) = via {
                        let p = &self.nodes[vn.idx()].ports[vp.idx()];
                        // A frame propagating on a link that was cut after
                        // it left (or is still down) never arrives.
                        if !p.link_up || p.last_down > now.saturating_sub(p.prop) {
                            self.fault_stats.link_down_drops += 1;
                            if self.tracer.wants(Subsystem::Fault) {
                                let (flow, bytes) = {
                                    let p = self.pool.get(pkt);
                                    (p.flow.0, p.wire_size)
                                };
                                self.tracer.record(
                                    now,
                                    TraceEvent::PortDrop {
                                        node: vn.0,
                                        port: vp.0,
                                        flow,
                                        bytes,
                                    },
                                );
                            }
                            self.pool.free(pkt);
                            return;
                        }
                    }
                }
                match self.nodes[node.idx()].kind {
                    NodeKind::Switch => {
                        let (dst, flow) = {
                            let p = self.pool.get(pkt);
                            (p.dst, p.flow)
                        };
                        match self.routes.try_pick(node, dst, flow) {
                            Some(out) => self.enqueue_at(node, out, pkt, now, q),
                            None => {
                                // Partitioned by a link-down: no route left.
                                // Drop; the sender's RTO (and a later link-up
                                // reroute) recovers.
                                self.fault_stats.link_down_drops += 1;
                                self.pool.free(pkt);
                            }
                        }
                    }
                    NodeKind::Host => self.deliver_to_host(node, pkt, now, q),
                }
            }
            Event::CcTimer(f) => self.on_cc_timer(f.idx(), now, q),
            Event::Rto(f) => self.on_rto(f.idx(), now, q),
            Event::LinkSet { node, port, up } => self.on_link_set(node, port, up, now),
            Event::PfcSet { node, port, paused } => {
                self.tracer.record(
                    now,
                    TraceEvent::PfcPause {
                        node: node.0,
                        port: port.0,
                        paused,
                    },
                );
                let p = &mut self.nodes[node.idx()].ports[port.idx()];
                p.pause.apply(paused);
                if !p.is_paused() && p.has_backlog() && !p.busy {
                    self.start_tx(node, port, now, q);
                }
            }
            Event::Sample => {
                let qb: Vec<u64> = self
                    .monitor
                    .cfg
                    .watch_ports
                    .iter()
                    .map(|(n, p)| self.nodes[n.idx()].ports[p.idx()].qbytes())
                    .collect();
                let flows = std::mem::take(&mut self.flows);
                self.monitor.take_sample(now, qb, &flows);
                self.flows = flows;
                // Keep sampling while any flow is pending; one final
                // sample lands just after the last completion.
                if !self.all_finished() {
                    if let Some(next) = self.monitor.wants_sample_after(now) {
                        q.push(next, Event::Sample);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::{BitRate, Simulation};
    use faircc::{CcMode, SenderLimits};

    /// Fixed-rate congestion control for substrate tests.
    struct FixedRate(BitRate);
    impl CongestionControl for FixedRate {
        fn on_ack(&mut self, _: &AckFeedback) {}
        fn limits(&self) -> SenderLimits {
            SenderLimits::rate_based(self.0)
        }
        fn mode(&self) -> CcMode {
            CcMode::Rate
        }
        fn name(&self) -> &str {
            "fixed"
        }
    }

    /// Rate control that halves on every CNP (minimal DCQCN-alike).
    struct HalveOnCnp {
        rate: f64,
    }
    impl CongestionControl for HalveOnCnp {
        fn on_ack(&mut self, _: &AckFeedback) {}
        fn on_cnp(&mut self, _: Nanos) {
            self.rate = (self.rate / 2.0).max(1e9);
        }
        fn limits(&self) -> SenderLimits {
            SenderLimits::rate_based(BitRate::from_bps_f64(self.rate))
        }
        fn mode(&self) -> CcMode {
            CcMode::Rate
        }
        fn name(&self) -> &str {
            "halve-on-cnp"
        }
    }

    /// host0 -- switch -- host1, both links 100 Gbps, 1 µs.
    fn two_host_net(monitor: MonitorConfig, cfg: NetConfig) -> (Network, NodeId, NodeId) {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let sw = b.add_switch();
        b.link(h0, sw, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(h1, sw, BitRate::from_gbps(100), Nanos::MICRO);
        (b.build(cfg, monitor), h0, h1)
    }

    #[test]
    fn single_flow_completes_at_ideal_fct() {
        let (mut net, h0, h1) = two_host_net(MonitorConfig::default(), NetConfig::default());
        let id = net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(100_000), // 100 packets
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        let ideal = net.ideal_fct(id);
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        // Hold the queue borrow correctly: prime needs &self and &mut queue.
        sim.run();
        let net = sim.world();
        assert!(net.all_finished());
        let fct = net.monitor.fcts()[0].fct();
        // The measured FCT should be within a few packet times of ideal
        // (pacing quantization), and never below it.
        assert!(fct >= ideal, "fct {fct} < ideal {ideal}");
        assert!(
            fct <= ideal + Nanos::from_ns(500),
            "fct {fct} too far above ideal {ideal}"
        );
    }

    #[test]
    fn ideal_fct_matches_hand_computation() {
        let (mut net, h0, h1) = two_host_net(MonitorConfig::default(), NetConfig::default());
        let id = net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(1000), // single packet
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        // Forward: 2 hops x (80ns ser + 1000ns prop) = 2160.
        // ACK back: 2 hops x (4.8->5ns ser + 1000ns prop) = 2010.
        assert_eq!(net.ideal_fct(id), Nanos::from_ns(2160 + 2010));
    }

    #[test]
    fn two_flows_share_bottleneck() {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let sw = b.add_switch();
        for h in [h0, h1, h2] {
            b.link(h, sw, BitRate::from_gbps(100), Nanos::MICRO);
        }
        let mut net = b.build(NetConfig::default(), MonitorConfig::default());
        // Two senders at 60 Gbps each into one 100 Gbps sink: the switch
        // egress queue must absorb the 20 Gbps excess.
        for src in [h0, h1] {
            net.add_flow(
                FlowSpec {
                    src,
                    dst: h2,
                    size: Bytes::new(600_000),
                    start: Nanos::ZERO,
                },
                Box::new(FixedRate(BitRate::from_gbps(60))),
            );
        }
        let bottleneck = net
            .port_towards(sw, h2)
            .expect("switch has a port toward every attached host");
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run();
        let net = sim.world();
        assert!(net.all_finished());
        // Offered 120 Gbps for 600KB each = 80us of sending; the sink link
        // is saturated so queue peaked near 20Gbps * 80us = 200KB.
        let peak = net.nodes[bottleneck.0.idx()].ports[bottleneck.1.idx()].max_qbytes();
        assert!(
            peak > 100_000,
            "expected a large standing queue, got {peak}"
        );
        assert!(peak < 300_000, "queue larger than offered excess: {peak}");
    }

    #[test]
    fn per_packet_acks_clock_the_window() {
        // A window-based CC with a 2-packet window and no pacing: delivery
        // must still complete, clocked by ACKs.
        struct TwoPacketWindow;
        impl CongestionControl for TwoPacketWindow {
            fn on_ack(&mut self, _: &AckFeedback) {}
            fn limits(&self) -> SenderLimits {
                SenderLimits {
                    window_bytes: 2000.0,
                    pacing: BitRate::from_bps(u64::MAX),
                }
            }
            fn mode(&self) -> CcMode {
                CcMode::Window
            }
            fn name(&self) -> &str {
                "w2"
            }
        }
        let (mut net, h0, h1) = two_host_net(MonitorConfig::default(), NetConfig::default());
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(50_000),
                start: Nanos::ZERO,
            },
            Box::new(TwoPacketWindow),
        );
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run();
        assert!(sim.world().all_finished());
        // 50 packets, 2 per RTT (~4.2us) => ~105us.
        let fct = sim.world().monitor.fcts()[0].fct();
        assert!(fct > Nanos::from_micros(90), "fct {fct}");
        assert!(fct < Nanos::from_micros(130), "fct {fct}");
    }

    #[test]
    fn red_marking_generates_cnps_and_rate_drops() {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let sw = b.add_switch();
        for h in [h0, h1, h2] {
            b.link(h, sw, BitRate::from_gbps(100), Nanos::MICRO);
        }
        b.red_on_switches(RedConfig {
            kmin: Bytes::new(5_000),
            kmax: Bytes::new(20_000),
            pmax: 0.2,
        });
        let mut net = b.build(NetConfig::default(), MonitorConfig::default());
        // Two line-rate senders overload the sink: queue grows, RED marks,
        // CNPs halve the rates until the queue stabilizes.
        for src in [h0, h1] {
            net.add_flow(
                FlowSpec {
                    src,
                    dst: h2,
                    size: Bytes::new(2_000_000),
                    start: Nanos::ZERO,
                },
                Box::new(HalveOnCnp { rate: 100e9 }),
            );
        }
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(5));
        let net = sim.world();
        // Both flows got CNPs: their rates dropped below line rate.
        for f in 0..2 {
            let r = net.flow(FlowId(f)).cc.current_rate();
            assert!(
                r < BitRate::from_gbps(100),
                "flow {f} never received a CNP (rate {r})"
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed: u64| -> Vec<(u64, u64)> {
            let mut b = NetBuilder::new();
            let hs: Vec<_> = (0..4).map(|_| b.add_host()).collect();
            let sw = b.add_switch();
            for &h in &hs {
                b.link(h, sw, BitRate::from_gbps(100), Nanos::MICRO);
            }
            b.red_on_switches(RedConfig {
                kmin: Bytes::new(5_000),
                kmax: Bytes::new(20_000),
                pmax: 0.2,
            });
            let mut net = b.build(
                NetConfig {
                    seed,
                    ..Default::default()
                },
                MonitorConfig::default(),
            );
            for i in 0..3 {
                net.add_flow(
                    FlowSpec {
                        src: hs[i],
                        dst: hs[3],
                        size: Bytes::new(500_000),
                        start: Nanos::from_micros(i as u64 * 10),
                    },
                    Box::new(HalveOnCnp { rate: 100e9 }),
                );
            }
            let mut sim = Simulation::new(net);
            {
                let (w, q) = sim.split_mut();
                w.prime(q);
            }
            sim.run_until(Nanos::from_millis(10));
            sim.world()
                .monitor
                .fcts()
                .iter()
                .map(|r| (r.flow.0 as u64, r.finish.as_u64()))
                .collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must give identical completions");
        assert!(!a.is_empty());
        // Different seed: RED draws differ, finishes (almost surely) shift.
        assert_ne!(a, c, "different seeds should perturb RED marking");
    }

    #[test]
    fn pfc_pauses_bound_queue_growth() {
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let sw = b.add_switch();
        for h in [h0, h1, h2] {
            b.link(h, sw, BitRate::from_gbps(100), Nanos::MICRO);
        }
        let pfc = PfcConfig {
            xoff: Bytes::new(30_000),
            xon: Bytes::new(20_000),
        };
        let mut net = b.build(
            NetConfig {
                pfc: Some(pfc),
                ..Default::default()
            },
            MonitorConfig::default(),
        );
        for src in [h0, h1] {
            net.add_flow(
                FlowSpec {
                    src,
                    dst: h2,
                    size: Bytes::new(2_000_000),
                    start: Nanos::ZERO,
                },
                Box::new(FixedRate(BitRate::from_gbps(100))), // never backs off
            );
        }
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(2));
        let net = sim.world();
        let (n, p) = net
            .port_towards(sw, h2)
            .expect("switch has a port toward every attached host");
        let peak = net.nodes[n.idx()].ports[p.idx()].max_qbytes();
        // Without PFC the peak would approach 1 MB (half the offered
        // excess); with PFC it must stay near xoff plus one BDP of
        // in-flight headroom.
        assert!(
            peak < 60_000,
            "PFC failed to bound the bottleneck queue: {peak}"
        );
        // And the flows must still finish eventually (pause, not drop).
        sim.run_until(Nanos::from_millis(10));
        if !sim.world().all_finished() {
            let net = sim.world();
            for f in 0..2u32 {
                let fl = net.flow(FlowId(f));
                eprintln!(
                    "flow {f}: sent={} acked={} rcv_next={}",
                    fl.sent, fl.acked, fl.rcv_next
                );
            }
            for (ni, n) in net.nodes.iter().enumerate() {
                for (pi, p) in n.ports.iter().enumerate() {
                    eprintln!(
                        "node {ni} port {pi}: q={} busy={} paused={} over={} peer={:?}",
                        p.qbytes(),
                        p.busy,
                        p.is_paused(),
                        p.pfc_over,
                        p.peer
                    );
                }
            }
            panic!("not finished");
        }
    }

    #[test]
    fn lossless_mode_never_drops() {
        let (mut net, h0, h1) = two_host_net(MonitorConfig::default(), NetConfig::default());
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(500_000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run();
        assert_eq!(sim.world().dropped_data_packets(), 0);
        assert!(sim.world().all_finished());
    }

    #[test]
    fn finite_buffers_drop_and_go_back_n_recovers() {
        // Two line-rate senders into one sink with a 10 KB switch buffer:
        // heavy tail-drop, yet every byte must be delivered in order.
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let sw = b.add_switch();
        for h in [h0, h1, h2] {
            b.link(h, sw, BitRate::from_gbps(100), Nanos::MICRO);
        }
        let mut net = b.build(
            NetConfig {
                switch_buffer: Some(Bytes::from_kb(10)),
                rto: Nanos::from_micros(100),
                ..NetConfig::default()
            },
            MonitorConfig::default(),
        );
        for src in [h0, h1] {
            net.add_flow(
                FlowSpec {
                    src,
                    dst: h2,
                    size: Bytes::new(300_000),
                    start: Nanos::ZERO,
                },
                Box::new(FixedRate(BitRate::from_gbps(100))), // never backs off
            );
        }
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(50));
        let net = sim.world();
        assert!(
            net.dropped_data_packets() > 0,
            "the 10 KB buffer must overflow under 2x line-rate load"
        );
        assert!(net.all_finished(), "go-back-N failed to recover");
        for f in 0..2u32 {
            let fl = net.flow(FlowId(f));
            // Receiver got every byte, exactly once, in order.
            assert_eq!(fl.rcv_next, fl.spec.size.as_u64());
            assert_eq!(fl.acked, fl.spec.size.as_u64());
            // Go-back-N means retransmission: more bytes sent than the
            // flow size would need... but `sent` is the cursor, which
            // ends exactly at size.
            assert_eq!(fl.sent, fl.spec.size.as_u64());
        }
        // The drop counter matches the per-port accounting.
        let (n, p) = net
            .port_towards(sw, h2)
            .expect("switch has a port toward every attached host");
        assert_eq!(
            net.node(n).ports[p.idx()].dropped_packets(),
            net.dropped_data_packets()
        );
    }

    #[test]
    fn rto_recovers_trailing_loss() {
        // A flow whose *final* packets are dropped has no later packet to
        // trigger a NACK gap: only the RTO can save it. Force this with a
        // buffer that fits almost nothing and a sender that bursts the
        // whole flow at once.
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let h2 = b.add_host();
        let sw = b.add_switch();
        for h in [h0, h1, h2] {
            b.link(h, sw, BitRate::from_gbps(100), Nanos::MICRO);
        }
        let mut net = b.build(
            NetConfig {
                switch_buffer: Some(Bytes::new(3_000)),
                rto: Nanos::from_micros(50),
                ..NetConfig::default()
            },
            MonitorConfig::default(),
        );
        for src in [h0, h1] {
            net.add_flow(
                FlowSpec {
                    src,
                    dst: h2,
                    size: Bytes::new(50_000),
                    start: Nanos::ZERO,
                },
                Box::new(FixedRate(BitRate::from_gbps(100))),
            );
        }
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(20));
        let net = sim.world();
        assert!(net.dropped_data_packets() > 0);
        assert!(net.all_finished(), "RTO failed to recover trailing losses");
    }

    #[test]
    fn faults_off_leaves_counters_untouched() {
        let (mut net, h0, h1) = two_host_net(MonitorConfig::default(), NetConfig::default());
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(100_000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run();
        assert!(sim.world().all_finished());
        assert_eq!(
            sim.world().fault_stats(),
            crate::fault::FaultStats::default()
        );
        assert_eq!(sim.world().flow(FlowId(0)).rto_count, 0);
    }

    #[test]
    fn wire_loss_recovers_and_counts() {
        use crate::fault::{FaultPlan, LinkFault, LossModel};
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let sw = b.add_switch();
        b.link(h0, sw, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(h1, sw, BitRate::from_gbps(100), Nanos::MICRO);
        let mut net = b.build(
            NetConfig {
                rto: Nanos::from_micros(50),
                faults: FaultPlan::none()
                    .link(LinkFault::on(h0, sw).with_loss(LossModel::uniform(0.05))),
                ..NetConfig::default()
            },
            MonitorConfig::default(),
        );
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(200_000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(100));
        let net = sim.world();
        let stats = net.fault_stats();
        assert!(stats.wire_drops > 0, "5% loss over 200 packets must bite");
        assert!(
            net.all_finished(),
            "go-back-N + RTO backoff failed to recover from wire loss: {stats:?}"
        );
        let fl = net.flow(FlowId(0));
        assert_eq!(fl.rcv_next, fl.spec.size.as_u64());
        assert_eq!(fl.acked, fl.spec.size.as_u64());
        // No buffer limit configured: every drop is a fault, not a tail drop.
        assert_eq!(net.dropped_data_packets(), 0);
    }

    #[test]
    fn link_cut_fails_over_to_detour() {
        use crate::fault::{FaultPlan, FlapSchedule, LinkFault};
        // h0 - s0 = s1 - h1, with a longer detour s0 - s2 - s1. All
        // traffic pins the direct s0-s1 link until it is cut mid-flow.
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        b.link(h0, s0, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(h1, s1, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(s0, s1, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(s0, s2, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(s2, s1, BitRate::from_gbps(100), Nanos::MICRO);
        let mut net = b.build(
            NetConfig {
                rto: Nanos::from_micros(50),
                faults: FaultPlan::none().link(
                    LinkFault::on(s0, s1)
                        .with_flap(FlapSchedule::permanent(Nanos::from_micros(20))),
                ),
                ..NetConfig::default()
            },
            MonitorConfig::default(),
        );
        let id = net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(500_000), // ~40us at line rate: the cut lands mid-flow
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(100))),
        );
        let ideal = net.ideal_fct(id);
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(50));
        let net = sim.world();
        let stats = net.fault_stats();
        assert!(
            net.all_finished(),
            "failover rerouting did not recover the flow: {stats:?}"
        );
        // Both directions of the cut link trigger a route recomputation.
        assert!(stats.reroutes >= 2, "{stats:?}");
        // Frames queued or in flight on the cut link died.
        assert!(stats.link_down_drops > 0, "{stats:?}");
        // The ideal-FCT denominator still reflects the pristine topology.
        assert_eq!(net.ideal_fct(id), ideal);
        let fct = net.monitor.fcts()[0].fct();
        assert!(fct > ideal, "a mid-flow cut must cost time");
    }

    #[test]
    #[should_panic(expected = "nonexistent link")]
    fn fault_plan_validates_links() {
        use crate::fault::{FaultPlan, LinkFault, LossModel};
        let mut b = NetBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let sw = b.add_switch();
        b.link(h0, sw, BitRate::from_gbps(100), Nanos::MICRO);
        b.link(h1, sw, BitRate::from_gbps(100), Nanos::MICRO);
        b.build(
            NetConfig {
                // h0 and h1 are not directly linked.
                faults: FaultPlan::none()
                    .link(LinkFault::on(h0, h1).with_loss(LossModel::uniform(0.1))),
                ..NetConfig::default()
            },
            MonitorConfig::default(),
        );
    }

    #[test]
    fn sampling_produces_series() {
        let (mut net, h0, h1) = two_host_net(
            MonitorConfig {
                sample_interval: Some(Nanos::from_micros(10)),
                sample_until: Nanos::from_millis(1),
                watch_ports: vec![],
                track_flow_rates: true,
            },
            NetConfig::default(),
        );
        net.add_flow(
            FlowSpec {
                src: h0,
                dst: h1,
                size: Bytes::new(1_000_000),
                start: Nanos::ZERO,
            },
            Box::new(FixedRate(BitRate::from_gbps(50))),
        );
        let mut sim = Simulation::new(net);
        {
            let (w, q) = sim.split_mut();
            w.prime(q);
        }
        sim.run_until(Nanos::from_millis(1));
        let samples = sim.world().monitor.samples();
        assert!(samples.len() > 10);
        // Mid-run samples should show ~50 Gbps goodput.
        let mid = &samples[5];
        assert_eq!(mid.flow_rates.len(), 1);
        let rate = mid.flow_rates[0].1;
        assert!((rate - 50e9).abs() < 5e9, "rate {rate}");
    }
}
