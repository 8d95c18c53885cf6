//! `netsim` — a packet-level datacenter network simulator.
//!
//! This crate is the workspace's substitute for ns-3 plus the HPCC artifact's
//! RDMA stack: it models hosts, store-and-forward output-queued switches,
//! full-duplex links, and per-flow senders driven by any
//! [`faircc::CongestionControl`] implementation.
//!
//! # Model
//!
//! * **Links** are point-to-point and full duplex; each direction has a
//!   line rate and a propagation delay. The transmit queue for a direction
//!   lives at the sending node's [`Port`](port::Port).
//! * **Switches** are output-queued: a packet arriving on any ingress is
//!   immediately placed on the egress port chosen by the routing table
//!   (shortest paths, per-flow ECMP). Egress ports stamp INT telemetry on
//!   data packets and can RED-mark ECN.
//! * **Hosts** run one sender per outgoing flow. Senders are window-limited
//!   *and* paced (per [`faircc::SenderLimits`]); every data packet is
//!   acknowledged by the receiver, and ACKs consume reverse bandwidth.
//!   ECN-marked deliveries can trigger DCQCN CNPs, rate-limited per flow.
//! * **Losslessness**: RDMA fabrics are lossless (PFC). The evaluated
//!   protocols keep queues near zero, so the default model uses deep
//!   buffers and *measures* queue depth rather than dropping; an optional
//!   PFC pause model ([`pfc`]) is provided to verify queues stay below
//!   realistic XOFF thresholds.
//!
//! # Determinism
//!
//! Runs are bit-reproducible given a seed: FIFO event ordering comes from
//! `dcsim`, ECMP hashing is a pure function of (flow, switch), and all
//! randomness (RED marking) derives from per-subsystem RNG streams.
//!
//! # Quick example
//!
//! See `examples/quickstart.rs` at the workspace root for a two-flow
//! bottleneck walkthrough.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod flow;
pub mod ids;
pub mod monitor;
pub mod network;
pub mod packet;
pub mod pfc;
pub mod port;
pub mod routing;
pub mod run;
pub mod topology;

pub use fault::{FaultPlan, FaultStats, FlapSchedule, LinkFault, LossModel, RtoBackoff};
pub use flow::{Flow, FlowSpec};
pub use ids::{FlowId, NodeId, PortNo};
pub use monitor::{FctRecord, Monitor, MonitorConfig, Sample};
pub use network::{Event, NetBuilder, NetConfig, Network};
pub use packet::{Packet, PacketKind};
pub use port::RedConfig;
pub use run::{run_watched, RunOutcome};
pub use topology::{FatTreeConfig, Topology};
