//! Typed trace events and their JSONL / Chrome `trace_event` encodings.

use dcsim::Nanos;
use minijson::{obj, Value};

use crate::config::Subsystem;

/// One structured trace event.
///
/// Integer identifiers (`node`, `port`, `flow`) are the raw values of the
/// simulator's id newtypes; byte counts are exact. Float payloads
/// (`window_bytes`, `vai_bank`) carry congestion-control state that is
/// natively `f64` — they are seed-deterministic bit patterns, so their
/// text encoding is byte-stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A packet entered a port's egress queue.
    PortEnqueue {
        /// Switch or host node id.
        node: u32,
        /// Egress port number on that node.
        port: u16,
        /// Owning flow id.
        flow: u32,
        /// Wire size of the packet, bytes.
        bytes: u32,
        /// Queue backlog after the enqueue, bytes.
        qbytes: u64,
    },
    /// A packet left a port's queue and started serializing.
    PortDequeue {
        /// Switch or host node id.
        node: u32,
        /// Egress port number on that node.
        port: u16,
        /// Owning flow id.
        flow: u32,
        /// Wire size of the packet, bytes.
        bytes: u32,
        /// Queue backlog after the dequeue, bytes.
        qbytes: u64,
    },
    /// A packet was dropped at a full port buffer.
    PortDrop {
        /// Switch or host node id.
        node: u32,
        /// Egress port number on that node.
        port: u16,
        /// Owning flow id.
        flow: u32,
        /// Wire size of the dropped packet, bytes.
        bytes: u32,
    },
    /// A packet was ECN-marked (threshold or RED) on enqueue.
    EcnMark {
        /// Switch or host node id.
        node: u32,
        /// Egress port number on that node.
        port: u16,
        /// Owning flow id.
        flow: u32,
        /// Queue backlog at the marking instant, bytes.
        qbytes: u64,
    },
    /// A PFC pause state change arrived at an upstream port.
    PfcPause {
        /// Node owning the paused/resumed port.
        node: u32,
        /// The port number.
        port: u16,
        /// `true` for XOFF (pause), `false` for XON (resume).
        paused: bool,
    },
    /// A flow's first transmission opportunity.
    FlowStart {
        /// Flow id.
        flow: u32,
        /// Flow size, payload bytes.
        bytes: u64,
    },
    /// A flow's final acknowledgement reached the sender.
    FlowFinish {
        /// Flow id.
        flow: u32,
        /// Flow size, payload bytes.
        bytes: u64,
        /// Flow completion time, nanoseconds.
        fct_ns: u64,
    },
    /// A congestion-control state sample (taken on ACK processing).
    CcUpdate {
        /// Flow id.
        flow: u32,
        /// Effective window, bytes (from `SenderLimits`).
        window_bytes: f64,
        /// Pacing rate, bits/s.
        rate_bps: u64,
        /// VAI token-bank balance (0 for variants without VAI).
        vai_bank: f64,
    },
    /// A link direction went down (fault injection), flushing its queue.
    LinkDown {
        /// Node owning the downed egress port.
        node: u32,
        /// The port number.
        port: u16,
        /// Queued frames flushed (dropped) by the outage.
        flushed: u32,
    },
    /// A link direction came back up (fault injection).
    LinkUp {
        /// Node owning the restored egress port.
        node: u32,
        /// The port number.
        port: u16,
    },
    /// A frame was destroyed on the wire by the loss model.
    LossBurst {
        /// Node owning the lossy egress port.
        node: u32,
        /// The port number.
        port: u16,
        /// Owning flow id.
        flow: u32,
        /// Wire size of the lost frame, bytes.
        bytes: u32,
        /// Whether the Gilbert–Elliott channel was in its bad state
        /// (`false` for uniform loss).
        bursty: bool,
    },
    /// A retransmission timeout fired and the sender backed off.
    RtoBackoff {
        /// Flow id.
        flow: u32,
        /// Backoff level after this firing (1 = first timeout).
        level: u32,
        /// The next armed timeout, nanoseconds.
        timeout_ns: u64,
    },
    /// Routing was recomputed after a link state change.
    Reroute {
        /// Node whose link changed and triggered the recompute.
        node: u32,
        /// The port number that changed state.
        port: u16,
        /// `true` if the trigger was the link coming up.
        up: bool,
    },
}

impl TraceEvent {
    /// The subsystem this event belongs to (drives filtering).
    pub fn subsystem(&self) -> Subsystem {
        match self {
            TraceEvent::PortEnqueue { .. }
            | TraceEvent::PortDequeue { .. }
            | TraceEvent::PortDrop { .. }
            | TraceEvent::EcnMark { .. } => Subsystem::Port,
            TraceEvent::PfcPause { .. } => Subsystem::Pfc,
            TraceEvent::FlowStart { .. } | TraceEvent::FlowFinish { .. } => Subsystem::Flow,
            TraceEvent::CcUpdate { .. } => Subsystem::Cc,
            TraceEvent::LinkDown { .. }
            | TraceEvent::LinkUp { .. }
            | TraceEvent::LossBurst { .. }
            | TraceEvent::RtoBackoff { .. }
            | TraceEvent::Reroute { .. } => Subsystem::Fault,
        }
    }

    /// Stable event name (JSONL `ev` field, Chrome `name`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::PortEnqueue { .. } => "enqueue",
            TraceEvent::PortDequeue { .. } => "dequeue",
            TraceEvent::PortDrop { .. } => "drop",
            TraceEvent::EcnMark { .. } => "ecn_mark",
            TraceEvent::PfcPause { .. } => "pfc",
            TraceEvent::FlowStart { .. } => "flow_start",
            TraceEvent::FlowFinish { .. } => "flow_finish",
            TraceEvent::CcUpdate { .. } => "cc_update",
            TraceEvent::LinkDown { .. } => "link_down",
            TraceEvent::LinkUp { .. } => "link_up",
            TraceEvent::LossBurst { .. } => "loss_burst",
            TraceEvent::RtoBackoff { .. } => "rto_backoff",
            TraceEvent::Reroute { .. } => "reroute",
        }
    }

    /// The payload fields, in fixed order, without the envelope.
    fn payload(&self) -> Vec<(&'static str, Value)> {
        match *self {
            TraceEvent::PortEnqueue {
                node,
                port,
                flow,
                bytes,
                qbytes,
            }
            | TraceEvent::PortDequeue {
                node,
                port,
                flow,
                bytes,
                qbytes,
            } => vec![
                ("node", Value::from(node)),
                ("port", Value::from(u32::from(port))),
                ("flow", Value::from(flow)),
                ("bytes", Value::from(bytes)),
                ("qbytes", Value::from(qbytes)),
            ],
            TraceEvent::PortDrop {
                node,
                port,
                flow,
                bytes,
            } => vec![
                ("node", Value::from(node)),
                ("port", Value::from(u32::from(port))),
                ("flow", Value::from(flow)),
                ("bytes", Value::from(bytes)),
            ],
            TraceEvent::EcnMark {
                node,
                port,
                flow,
                qbytes,
            } => vec![
                ("node", Value::from(node)),
                ("port", Value::from(u32::from(port))),
                ("flow", Value::from(flow)),
                ("qbytes", Value::from(qbytes)),
            ],
            TraceEvent::PfcPause { node, port, paused } => vec![
                ("node", Value::from(node)),
                ("port", Value::from(u32::from(port))),
                ("paused", Value::from(paused)),
            ],
            TraceEvent::FlowStart { flow, bytes } => {
                vec![("flow", Value::from(flow)), ("bytes", Value::from(bytes))]
            }
            TraceEvent::FlowFinish {
                flow,
                bytes,
                fct_ns,
            } => vec![
                ("flow", Value::from(flow)),
                ("bytes", Value::from(bytes)),
                ("fct_ns", Value::from(fct_ns)),
            ],
            TraceEvent::CcUpdate {
                flow,
                window_bytes,
                rate_bps,
                vai_bank,
            } => vec![
                ("flow", Value::from(flow)),
                ("window_bytes", Value::from(window_bytes)),
                ("rate_bps", Value::from(rate_bps)),
                ("vai_bank", Value::from(vai_bank)),
            ],
            TraceEvent::LinkDown {
                node,
                port,
                flushed,
            } => vec![
                ("node", Value::from(node)),
                ("port", Value::from(u32::from(port))),
                ("flushed", Value::from(flushed)),
            ],
            TraceEvent::LinkUp { node, port } => vec![
                ("node", Value::from(node)),
                ("port", Value::from(u32::from(port))),
            ],
            TraceEvent::LossBurst {
                node,
                port,
                flow,
                bytes,
                bursty,
            } => vec![
                ("node", Value::from(node)),
                ("port", Value::from(u32::from(port))),
                ("flow", Value::from(flow)),
                ("bytes", Value::from(bytes)),
                ("bursty", Value::from(bursty)),
            ],
            TraceEvent::RtoBackoff {
                flow,
                level,
                timeout_ns,
            } => vec![
                ("flow", Value::from(flow)),
                ("level", Value::from(level)),
                ("timeout_ns", Value::from(timeout_ns)),
            ],
            TraceEvent::Reroute { node, port, up } => vec![
                ("node", Value::from(node)),
                ("port", Value::from(u32::from(port))),
                ("up", Value::from(up)),
            ],
        }
    }

    /// One JSONL record: `{"t":…,"sub":…,"ev":…,<payload>}`.
    pub fn to_value(&self, t: Nanos) -> Value {
        let mut fields: Vec<(String, Value)> = vec![
            ("t".to_owned(), Value::from(t.as_u64())),
            ("sub".to_owned(), Value::from(self.subsystem().name())),
            ("ev".to_owned(), Value::from(self.name())),
        ];
        for (k, v) in self.payload() {
            fields.push((k.to_owned(), v));
        }
        Value::Obj(fields)
    }

    /// The Chrome `trace_event` record for this event.
    ///
    /// Flow completions become complete spans (`ph: "X"`, `dur` = FCT);
    /// everything else is a global instant (`ph: "i"`). Timestamps are
    /// microseconds, as the format requires.
    pub fn chrome_value(&self, t: Nanos) -> Value {
        let ts_us = t.as_micros_f64();
        let track = match *self {
            TraceEvent::PortEnqueue { node, .. }
            | TraceEvent::PortDequeue { node, .. }
            | TraceEvent::PortDrop { node, .. }
            | TraceEvent::EcnMark { node, .. }
            | TraceEvent::PfcPause { node, .. }
            | TraceEvent::LinkDown { node, .. }
            | TraceEvent::LinkUp { node, .. }
            | TraceEvent::LossBurst { node, .. }
            | TraceEvent::Reroute { node, .. } => node,
            TraceEvent::FlowStart { flow, .. }
            | TraceEvent::FlowFinish { flow, .. }
            | TraceEvent::CcUpdate { flow, .. }
            | TraceEvent::RtoBackoff { flow, .. } => flow,
        };
        if let TraceEvent::FlowFinish { fct_ns, .. } = *self {
            let dur_us = Nanos::from_ns(fct_ns).as_micros_f64();
            return obj([
                ("name", Value::from(self.name())),
                ("cat", Value::from(self.subsystem().name())),
                ("ph", Value::from("X")),
                ("ts", Value::from(ts_us - dur_us)),
                ("dur", Value::from(dur_us)),
                ("pid", Value::from(1u32)),
                ("tid", Value::from(track)),
                ("args", Value::Obj(to_args(self.payload()))),
            ]);
        }
        obj([
            ("name", Value::from(self.name())),
            ("cat", Value::from(self.subsystem().name())),
            ("ph", Value::from("i")),
            ("ts", Value::from(ts_us)),
            ("s", Value::from("g")),
            ("pid", Value::from(1u32)),
            ("tid", Value::from(track)),
            ("args", Value::Obj(to_args(self.payload()))),
        ])
    }
}

fn to_args(pairs: Vec<(&'static str, Value)>) -> Vec<(String, Value)> {
    pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsystems_and_names_are_stable() {
        let ev = TraceEvent::PortDrop {
            node: 3,
            port: 1,
            flow: 7,
            bytes: 1064,
        };
        assert_eq!(ev.subsystem(), Subsystem::Port);
        assert_eq!(ev.name(), "drop");
        let v = ev.to_value(Nanos::from_ns(250));
        assert_eq!(v["t"].as_u64(), Some(250));
        assert_eq!(v["sub"].as_str(), Some("port"));
        assert_eq!(v["ev"].as_str(), Some("drop"));
        assert_eq!(v["bytes"].as_u64(), Some(1064));
    }

    #[test]
    fn flow_finish_is_a_complete_span() {
        let ev = TraceEvent::FlowFinish {
            flow: 2,
            bytes: 1_000_000,
            fct_ns: 4_000,
        };
        let v = ev.chrome_value(Nanos::from_ns(10_000));
        assert_eq!(v["ph"].as_str(), Some("X"));
        assert_eq!(v["ts"].as_f64(), Some(6.0));
        assert_eq!(v["dur"].as_f64(), Some(4.0));
        assert_eq!(v["tid"].as_u64(), Some(2));
    }

    #[test]
    fn fault_events_belong_to_the_fault_subsystem() {
        let evs = [
            TraceEvent::LinkDown {
                node: 4,
                port: 2,
                flushed: 3,
            },
            TraceEvent::LinkUp { node: 4, port: 2 },
            TraceEvent::LossBurst {
                node: 4,
                port: 2,
                flow: 9,
                bytes: 1064,
                bursty: true,
            },
            TraceEvent::RtoBackoff {
                flow: 9,
                level: 2,
                timeout_ns: 400_000,
            },
            TraceEvent::Reroute {
                node: 4,
                port: 2,
                up: false,
            },
        ];
        let names = [
            "link_down",
            "link_up",
            "loss_burst",
            "rto_backoff",
            "reroute",
        ];
        for (ev, name) in evs.iter().zip(names) {
            assert_eq!(ev.subsystem(), Subsystem::Fault);
            assert_eq!(ev.name(), name);
            let v = ev.to_value(Nanos::from_ns(100));
            assert_eq!(v["sub"].as_str(), Some("fault"));
            assert_eq!(v["ev"].as_str(), Some(name));
            let c = ev.chrome_value(Nanos::from_ns(100));
            assert_eq!(c["ph"].as_str(), Some("i"));
            assert_eq!(c["cat"].as_str(), Some("fault"));
        }
        let v = evs[3].to_value(Nanos::from_ns(1));
        assert_eq!(v["level"].as_u64(), Some(2));
        assert_eq!(v["timeout_ns"].as_u64(), Some(400_000));
        // RtoBackoff is flow-keyed; link events are node-keyed.
        assert_eq!(
            evs[3].chrome_value(Nanos::from_ns(1))["tid"].as_u64(),
            Some(9)
        );
        assert_eq!(
            evs[0].chrome_value(Nanos::from_ns(1))["tid"].as_u64(),
            Some(4)
        );
    }

    #[test]
    fn instants_carry_scope_and_args() {
        let ev = TraceEvent::EcnMark {
            node: 1,
            port: 0,
            flow: 5,
            qbytes: 90_000,
        };
        let v = ev.chrome_value(Nanos::from_ns(1_500));
        assert_eq!(v["ph"].as_str(), Some("i"));
        assert_eq!(v["s"].as_str(), Some("g"));
        assert_eq!(v["cat"].as_str(), Some("port"));
        assert_eq!(v["args"]["qbytes"].as_u64(), Some(90_000));
    }
}
