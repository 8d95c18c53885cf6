//! Declarative sweep specifications: the axes, their deterministic
//! cartesian expansion, per-point seed ensembles, and the JSON schema
//! `repro --sweep` consumes.
//!
//! Expansion order is part of the contract: workload points vary slowest
//! (in declaration order), the protocol/variant axis varies fastest. That
//! keeps baseline/treatment pairs adjacent in the cell list (paired
//! per-flow comparisons walk cells in `chunks(2)`) and makes reports
//! byte-stable across reruns.
//!
//! Seeds are derived per workload *point*, not per cell: every protocol
//! variant at the same point runs the same seed list, so cross-variant
//! comparisons use common random numbers (the same arrival sequence).
//! Replicate 0 is the ensemble's root seed — a 1-replicate sweep
//! reproduces the classic single-seed figures bit-for-bit.

use dcsim::{DetRng, Nanos};
use fairsim::{CcSpec, ProtocolKind, Variant};
use minijson::{arr, obj, Value};
use workloads::distributions;

/// FNV-1a hash of a string — the stable key hasher behind per-point seed
/// derivation and bootstrap seeding (never used as a statistical RNG).
pub fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// File-name slug: lowercase alphanumerics, runs of anything else
/// collapsed to `-`.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// A seed ensemble: how many replicates each cell runs and how their
/// seeds derive from the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ensemble {
    /// Seed of replicate 0 and the root of every derived seed.
    pub root_seed: u64,
    /// Number of seeds per cell (>= 1).
    pub replicates: usize,
}

impl Ensemble {
    /// An ensemble of `replicates` seeds rooted at `root_seed`.
    pub fn new(root_seed: u64, replicates: usize) -> Self {
        assert!(replicates >= 1, "an ensemble needs at least one replicate");
        Ensemble {
            root_seed,
            replicates,
        }
    }

    /// The single-seed ensemble (replicate 0 only).
    pub fn single(root_seed: u64) -> Self {
        Ensemble::new(root_seed, 1)
    }

    /// The seed list for one workload point.
    ///
    /// Replicate 0 is the root seed itself; replicate `k >= 1` derives
    /// from `(root_seed, fnv1a(point_key), k)` through [`DetRng::fork`],
    /// so it is rerun-stable and independent of every other point and of
    /// how many replicates were requested.
    pub fn seeds_for(&self, point_key: &str) -> Vec<u64> {
        let mut seeds = Vec::with_capacity(self.replicates);
        seeds.push(self.root_seed);
        let point_stream = DetRng::new(self.root_seed).fork(fnv1a(point_key));
        for rep in 1..self.replicates {
            seeds.push(point_stream.fork(rep as u64).seed());
        }
        seeds
    }
}

/// One fault-injection grid cell: a named combination of wire-loss rate
/// and link-flap cadence (see [`fairsim::FaultScenario`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCell {
    /// Grid-cell name ("clean", "loss 1e-3 + flap", ...).
    pub name: String,
    /// Mean per-packet fabric loss probability (0 = no wire loss).
    pub loss: f64,
    /// Bursty Gilbert–Elliott loss instead of uniform Bernoulli.
    pub bursty: bool,
    /// Flap one agg–spine link `(period, down_for)`.
    pub flap: Option<(Nanos, Nanos)>,
}

impl FaultCell {
    /// The paper-companion loss x flap grid of the `faults` figure and
    /// the `paper-faults` preset: a clean reference cell (which must
    /// reproduce the fault-free baseline bit-for-bit), two wire-loss
    /// rates, a flapping agg–spine link, and both at once.
    pub fn paper_grid() -> Vec<FaultCell> {
        let flap = Some((Nanos::from_micros(200), Nanos::from_micros(40)));
        [
            ("clean", 0.0, None),
            ("loss 1e-4", 1e-4, None),
            ("loss 1e-3", 1e-3, None),
            ("flap 200us", 0.0, flap),
            ("loss 1e-3 + flap", 1e-3, flap),
        ]
        .into_iter()
        .map(|(name, loss, flap)| FaultCell {
            name: name.to_string(),
            loss,
            bursty: false,
            flap,
        })
        .collect()
    }
}

/// The workload axis of a sweep: which scenario family runs and which of
/// its parameters are swept.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadAxis {
    /// Staggered incast on the single-switch star, swept over sender
    /// counts (degree 96 selects the paper's 96-1 shape).
    Incast {
        /// Sender counts to sweep.
        degrees: Vec<usize>,
    },
    /// Poisson traffic from empirical flow-size distributions on the
    /// fat-tree, swept over workload mixes and offered loads.
    Datacenter {
        /// Distribution-name mixes (each mix is one or more names from
        /// [`workloads::distributions::by_name`], mixed evenly).
        mixes: Vec<Vec<String>>,
        /// Offered load fractions.
        loads: Vec<f64>,
        /// Paper scale (320-host fat-tree, 50 ms of arrivals) instead of
        /// the reduced default.
        full_scale: bool,
    },
    /// Fault injection on the fat-tree, swept over offered loads and a
    /// named loss/flap grid.
    Faults {
        /// Distribution-name mix for every cell.
        mix: Vec<String>,
        /// Offered load fractions.
        loads: Vec<f64>,
        /// The loss/flap grid.
        cells: Vec<FaultCell>,
        /// Paper scale instead of the reduced default.
        full_scale: bool,
    },
}

/// One concrete workload point from a [`WorkloadAxis`] — everything about
/// a cell except the protocol under test.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadPoint {
    /// One incast degree.
    Incast {
        /// Sender count.
        degree: usize,
    },
    /// One datacenter (mix, load) pair.
    Datacenter {
        /// Distribution-name mix.
        mix: Vec<String>,
        /// Offered load fraction.
        load: f64,
        /// Paper scale.
        full_scale: bool,
    },
    /// One fault-grid (load, cell) pair.
    Faults {
        /// Distribution-name mix.
        mix: Vec<String>,
        /// Offered load fraction.
        load: f64,
        /// The loss/flap knobs.
        cell: FaultCell,
        /// Paper scale.
        full_scale: bool,
    },
}

impl WorkloadPoint {
    /// Stable key identifying this point — the seed-derivation input and
    /// the prefix of every cell id built on the point.
    pub fn key(&self) -> String {
        match self {
            WorkloadPoint::Incast { degree } => format!("incast/deg={degree}"),
            WorkloadPoint::Datacenter {
                mix,
                load,
                full_scale,
            } => {
                let scale = if *full_scale { "/full" } else { "" };
                format!("dc/mix={}/load={load}{scale}", mix.join("+"))
            }
            WorkloadPoint::Faults {
                mix,
                load,
                cell,
                full_scale,
            } => {
                let scale = if *full_scale { "/full" } else { "" };
                format!(
                    "faults/mix={}/load={load}/{}{scale}",
                    mix.join("+"),
                    slug(&cell.name)
                )
            }
        }
    }

    /// The point's axis values as `(axis, value)` pairs for the report.
    pub fn axes(&self) -> Vec<(String, String)> {
        match self {
            WorkloadPoint::Incast { degree } => vec![
                ("workload".to_string(), "incast".to_string()),
                ("degree".to_string(), degree.to_string()),
            ],
            WorkloadPoint::Datacenter {
                mix,
                load,
                full_scale,
            } => vec![
                ("workload".to_string(), "datacenter".to_string()),
                ("mix".to_string(), mix.join("+")),
                ("load".to_string(), format!("{load}")),
                (
                    "scale".to_string(),
                    if *full_scale { "full" } else { "reduced" }.to_string(),
                ),
            ],
            WorkloadPoint::Faults {
                mix,
                load,
                cell,
                full_scale,
            } => vec![
                ("workload".to_string(), "faults".to_string()),
                ("mix".to_string(), mix.join("+")),
                ("load".to_string(), format!("{load}")),
                ("fault".to_string(), cell.name.clone()),
                ("loss".to_string(), format!("{}", cell.loss)),
                (
                    "scale".to_string(),
                    if *full_scale { "full" } else { "reduced" }.to_string(),
                ),
            ],
        }
    }
}

/// One expanded sweep cell: a `(workload point, protocol variant)` pair
/// with its seed ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Position in the expansion (also the report order).
    pub index: usize,
    /// Stable cell id: `<point key>/cc=<label slug>`.
    pub id: String,
    /// Protocol under test.
    pub cc: CcSpec,
    /// The workload point.
    pub point: WorkloadPoint,
    /// The seeds this cell runs (shared with every other cell at the
    /// same point — common random numbers across the protocol axis).
    pub seeds: Vec<u64>,
}

/// A declarative sweep: a protocol list x a workload axis x a seed
/// ensemble.
///
/// The JSON form (see [`SweepSpec::parse`]) is what `repro --sweep FILE`
/// loads; [`preset`] names a few built-in specs. Seeds above 2^53 do not
/// survive the JSON round-trip (minijson stores numbers as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (report header and trace-artifact file prefix).
    pub name: String,
    /// Protocol/variant axis (fastest-varying; must be distinct).
    pub cc: Vec<CcSpec>,
    /// Workload axis.
    pub workload: WorkloadAxis,
    /// Seed ensemble.
    pub ensemble: Ensemble,
}

impl SweepSpec {
    /// The workload points of this sweep, slowest-varying axis first, in
    /// declaration order.
    pub fn points(&self) -> Vec<WorkloadPoint> {
        match &self.workload {
            WorkloadAxis::Incast { degrees } => degrees
                .iter()
                .map(|&degree| WorkloadPoint::Incast { degree })
                .collect(),
            WorkloadAxis::Datacenter {
                mixes,
                loads,
                full_scale,
            } => {
                let mut out = Vec::with_capacity(mixes.len() * loads.len());
                for mix in mixes {
                    for &load in loads {
                        out.push(WorkloadPoint::Datacenter {
                            mix: mix.clone(),
                            load,
                            full_scale: *full_scale,
                        });
                    }
                }
                out
            }
            WorkloadAxis::Faults {
                mix,
                loads,
                cells,
                full_scale,
            } => {
                let mut out = Vec::with_capacity(loads.len() * cells.len());
                for &load in loads {
                    for cell in cells {
                        out.push(WorkloadPoint::Faults {
                            mix: mix.clone(),
                            load,
                            cell: cell.clone(),
                            full_scale: *full_scale,
                        });
                    }
                }
                out
            }
        }
    }

    /// Number of cells the spec expands to (points x protocols).
    pub fn cell_count(&self) -> usize {
        self.points().len() * self.cc.len()
    }

    /// Expand the cartesian product into ordered cells.
    ///
    /// Panics if two cells would share an id (duplicate axis values): a
    /// sweep with aliased cells would silently average distinct
    /// configurations together.
    pub fn expand(&self) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for point in self.points() {
            let key = point.key();
            let seeds = self.ensemble.seeds_for(&key);
            for cc in &self.cc {
                cells.push(CellSpec {
                    index: cells.len(),
                    id: format!("{key}/cc={}", slug(&cc.label())),
                    cc: *cc,
                    point: point.clone(),
                    seeds: seeds.clone(),
                });
            }
        }
        let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        ids.sort_unstable();
        for w in ids.windows(2) {
            assert!(
                w[0] != w[1],
                "duplicate sweep cell id {:?}: axis values must be distinct",
                w[0]
            );
        }
        cells
    }

    /// Serialize to the pretty JSON schema [`SweepSpec::parse`] reads.
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Build the JSON tree for this spec.
    pub fn to_value(&self) -> Value {
        obj([
            ("name", Value::from(self.name.as_str())),
            ("seed", Value::from(self.ensemble.root_seed)),
            ("replicates", Value::from(self.ensemble.replicates)),
            ("cc", Value::Arr(self.cc.iter().map(cc_to_value).collect())),
            ("workload", workload_to_value(&self.workload)),
        ])
    }

    /// Parse the JSON schema:
    ///
    /// ```json
    /// {
    ///   "name": "my-sweep",
    ///   "seed": 42,
    ///   "replicates": 3,
    ///   "cc": [{"protocol": "hpcc", "variant": "vai-sf"}],
    ///   "workload": {"kind": "incast", "degrees": [16, 96]}
    /// }
    /// ```
    ///
    /// Datacenter workloads use `{"kind": "datacenter", "mixes":
    /// [["FB_Hadoop"]], "loads": [0.5]}`; fault sweeps use `{"kind":
    /// "faults", "mix": [...], "loads": [...], "cells": [{"name":
    /// "clean", "loss": 0}]}` with optional `bursty`,
    /// `flap_period_ns`/`flap_down_ns`, and `full_scale` knobs.
    pub fn parse(text: &str) -> Result<SweepSpec, String> {
        let v = Value::parse(text).map_err(|e| format!("sweep spec is not valid JSON: {e}"))?;
        let name = str_field(&v, "name")?;
        let root_seed = u64_field(&v, "seed")?;
        let replicates = match v.get("replicates") {
            Some(r) => usize_value(r, "replicates")?,
            None => 1,
        };
        if replicates == 0 {
            return Err("`replicates` must be >= 1".to_string());
        }
        let cc_items = v
            .get("cc")
            .and_then(Value::as_array)
            .ok_or_else(|| "`cc` must be an array of protocol specs".to_string())?;
        if cc_items.is_empty() {
            return Err("`cc` must name at least one protocol".to_string());
        }
        let mut cc = Vec::with_capacity(cc_items.len());
        for item in cc_items {
            cc.push(cc_from_value(item)?);
        }
        let workload = workload_from_value(
            v.get("workload")
                .ok_or_else(|| "missing key `workload`".to_string())?,
        )?;
        Ok(SweepSpec {
            name,
            cc,
            workload,
            ensemble: Ensemble::new(root_seed, replicates),
        })
    }
}

/// Lowercase wire name of a protocol family.
pub fn protocol_name(kind: ProtocolKind) -> &'static str {
    match kind {
        ProtocolKind::Hpcc => "hpcc",
        ProtocolKind::Swift => "swift",
        ProtocolKind::Dcqcn => "dcqcn",
        ProtocolKind::Timely => "timely",
    }
}

/// Parse a protocol wire name.
pub fn protocol_from_str(s: &str) -> Option<ProtocolKind> {
    match s {
        "hpcc" => Some(ProtocolKind::Hpcc),
        "swift" => Some(ProtocolKind::Swift),
        "dcqcn" => Some(ProtocolKind::Dcqcn),
        "timely" => Some(ProtocolKind::Timely),
        _ => None,
    }
}

/// Lowercase wire name of a variant.
pub fn variant_name(variant: Variant) -> &'static str {
    match variant {
        Variant::Default => "default",
        Variant::HighAi => "high-ai",
        Variant::Probabilistic => "probabilistic",
        Variant::Vai => "vai",
        Variant::Sf => "sf",
        Variant::VaiSf => "vai-sf",
    }
}

/// Parse a variant wire name.
pub fn variant_from_str(s: &str) -> Option<Variant> {
    match s {
        "default" => Some(Variant::Default),
        "high-ai" => Some(Variant::HighAi),
        "probabilistic" => Some(Variant::Probabilistic),
        "vai" => Some(Variant::Vai),
        "sf" => Some(Variant::Sf),
        "vai-sf" => Some(Variant::VaiSf),
        _ => None,
    }
}

fn cc_to_value(cc: &CcSpec) -> Value {
    obj([
        ("protocol", Value::from(protocol_name(cc.kind))),
        ("variant", Value::from(variant_name(cc.variant))),
        ("hyper_ai", Value::from(cc.opts.hyper_ai)),
    ])
}

fn cc_from_value(v: &Value) -> Result<CcSpec, String> {
    let proto = str_field(v, "protocol")?;
    let kind = protocol_from_str(&proto)
        .ok_or_else(|| format!("unknown protocol {proto:?} (hpcc|swift|dcqcn|timely)"))?;
    let var = str_field(v, "variant")?;
    let variant = variant_from_str(&var).ok_or_else(|| {
        format!("unknown variant {var:?} (default|high-ai|probabilistic|vai|sf|vai-sf)")
    })?;
    let mut spec = CcSpec::new(kind, variant);
    if v["hyper_ai"].as_bool() == Some(true) {
        spec = spec.with_options(spec.opts.hyper_ai());
    }
    Ok(spec)
}

fn fault_cell_to_value(cell: &FaultCell) -> Value {
    obj([
        ("name", Value::from(cell.name.as_str())),
        ("loss", Value::from(cell.loss)),
        ("bursty", Value::from(cell.bursty)),
        (
            "flap_period_ns",
            Value::from(cell.flap.map(|(p, _)| p.as_u64())),
        ),
        (
            "flap_down_ns",
            Value::from(cell.flap.map(|(_, d)| d.as_u64())),
        ),
    ])
}

fn fault_cell_from_value(v: &Value) -> Result<FaultCell, String> {
    let name = str_field(v, "name")?;
    let loss = v["loss"].as_f64().unwrap_or(0.0);
    if !(0.0..=1.0).contains(&loss) {
        return Err(format!(
            "fault cell {name:?}: loss {loss} is not a probability in [0, 1]"
        ));
    }
    let bursty = v["bursty"].as_bool().unwrap_or(false);
    let period = v["flap_period_ns"].as_u64();
    let down = v["flap_down_ns"].as_u64();
    let flap = match (period, down) {
        (Some(p), Some(d)) if d < p => Some((Nanos::from_ns(p), Nanos::from_ns(d))),
        (Some(_), Some(_)) => {
            return Err(format!(
                "fault cell {name:?}: flap_down_ns must be shorter than flap_period_ns"
            ))
        }
        (None, None) => None,
        (Some(_), None) | (None, Some(_)) => {
            return Err(format!(
                "fault cell {name:?}: flap_period_ns and flap_down_ns must come together"
            ))
        }
    };
    Ok(FaultCell {
        name,
        loss,
        bursty,
        flap,
    })
}

fn workload_to_value(w: &WorkloadAxis) -> Value {
    match w {
        WorkloadAxis::Incast { degrees } => obj([
            ("kind", Value::from("incast")),
            ("degrees", arr(degrees.clone())),
        ]),
        WorkloadAxis::Datacenter {
            mixes,
            loads,
            full_scale,
        } => obj([
            ("kind", Value::from("datacenter")),
            (
                "mixes",
                Value::Arr(mixes.iter().map(|m| arr(m.clone())).collect()),
            ),
            ("loads", arr(loads.clone())),
            ("full_scale", Value::from(*full_scale)),
        ]),
        WorkloadAxis::Faults {
            mix,
            loads,
            cells,
            full_scale,
        } => obj([
            ("kind", Value::from("faults")),
            ("mix", arr(mix.clone())),
            ("loads", arr(loads.clone())),
            (
                "cells",
                Value::Arr(cells.iter().map(fault_cell_to_value).collect()),
            ),
            ("full_scale", Value::from(*full_scale)),
        ]),
    }
}

fn workload_from_value(v: &Value) -> Result<WorkloadAxis, String> {
    let kind = str_field(v, "kind")?;
    match kind.as_str() {
        "incast" => {
            let degrees = usize_list(v, "degrees")?;
            if degrees.is_empty() {
                return Err("incast workload needs at least one degree".to_string());
            }
            if degrees.contains(&0) {
                return Err("incast `degrees` must be >= 1 (senders per receiver)".to_string());
            }
            Ok(WorkloadAxis::Incast { degrees })
        }
        "datacenter" => {
            let mix_items = v
                .get("mixes")
                .and_then(Value::as_array)
                .ok_or_else(|| "`mixes` must be an array of name arrays".to_string())?;
            let mut mixes = Vec::with_capacity(mix_items.len());
            for m in mix_items {
                mixes.push(mix_value(m, "mixes")?);
            }
            if mixes.is_empty() {
                return Err("datacenter workload needs at least one mix".to_string());
            }
            Ok(WorkloadAxis::Datacenter {
                mixes,
                loads: load_list(v)?,
                full_scale: v["full_scale"].as_bool().unwrap_or(false),
            })
        }
        "faults" => {
            let cell_items = v
                .get("cells")
                .and_then(Value::as_array)
                .ok_or_else(|| "`cells` must be an array of fault cells".to_string())?;
            let mut cells = Vec::with_capacity(cell_items.len());
            for c in cell_items {
                cells.push(fault_cell_from_value(c)?);
            }
            if cells.is_empty() {
                return Err("faults workload needs at least one cell".to_string());
            }
            Ok(WorkloadAxis::Faults {
                mix: mix_value(
                    v.get("mix")
                        .ok_or_else(|| "missing key `mix`".to_string())?,
                    "mix",
                )?,
                loads: load_list(v)?,
                cells,
                full_scale: v["full_scale"].as_bool().unwrap_or(false),
            })
        }
        other => Err(format!(
            "unknown workload kind {other:?} (incast|datacenter|faults)"
        )),
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v[key]
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` must be a string"))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    v[key]
        .as_u64()
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))
}

fn usize_value(v: &Value, key: &str) -> Result<usize, String> {
    let n = v
        .as_u64()
        .ok_or_else(|| format!("`{key}` must be a non-negative integer"))?;
    usize::try_from(n).map_err(|_| format!("`{key}` is out of range"))
}

fn usize_list(v: &Value, key: &str) -> Result<Vec<usize>, String> {
    let items = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{key}` must be an array of integers"))?;
    items.iter().map(|x| usize_value(x, key)).collect()
}

/// The `loads` axis: a non-empty list of offered-load fractions in (0, 1].
fn load_list(v: &Value) -> Result<Vec<f64>, String> {
    let items = v
        .get("loads")
        .and_then(Value::as_array)
        .ok_or_else(|| "`loads` must be an array of numbers".to_string())?;
    let out: Option<Vec<f64>> = items.iter().map(Value::as_f64).collect();
    let out = out.ok_or_else(|| "`loads` must be an array of numbers".to_string())?;
    if out.is_empty() {
        return Err("`loads` must not be empty".to_string());
    }
    if let Some(bad) = out.iter().find(|&&l| !(l > 0.0 && l <= 1.0)) {
        return Err(format!("load {bad} is not in (0, 1]"));
    }
    Ok(out)
}

/// One traffic mix: a non-empty list of flow-size distribution names
/// that [`distributions::by_name`] knows.
fn mix_value(v: &Value, key: &str) -> Result<Vec<String>, String> {
    let items = v
        .as_array()
        .ok_or_else(|| format!("`{key}` entries must be arrays of strings"))?;
    let out: Option<Vec<String>> = items
        .iter()
        .map(|x| x.as_str().map(str::to_string))
        .collect();
    let mix = out.ok_or_else(|| format!("`{key}` entries must be arrays of strings"))?;
    if mix.is_empty() {
        return Err(format!("`{key}`: a mix names at least one distribution"));
    }
    if let Some(bad) = mix.iter().find(|n| distributions::by_name(n).is_none()) {
        return Err(format!(
            "unknown distribution {bad:?} (valid: {})",
            distributions::NAMES.join(", ")
        ));
    }
    Ok(mix)
}

/// Names [`preset`] accepts.
pub fn preset_names() -> &'static [&'static str] {
    &["smoke", "paper-incast", "paper-datacenter", "paper-faults"]
}

/// A built-in sweep spec by name.
///
/// * `smoke` — 8-1 and 16-1 incast, HPCC default vs VAI+SF, 3 seeds
///   (the CI job's fast end-to-end exercise);
/// * `paper-incast` — 16-1 and 96-1 incast, HPCC/Swift x default/VAI+SF;
/// * `paper-datacenter` — Figures 10-13 as one sweep (Hadoop and
///   WebSearch+Storage mixes, the four datacenter variants);
/// * `paper-faults` — the fault figure's loss/flap grid, baseline vs
///   VAI+SF.
pub fn preset(name: &str) -> Option<SweepSpec> {
    match name {
        "smoke" => Some(SweepSpec {
            name: "smoke".to_string(),
            cc: vec![
                CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
                CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
            ],
            workload: WorkloadAxis::Incast {
                degrees: vec![8, 16],
            },
            ensemble: Ensemble::new(42, 3),
        }),
        "paper-incast" => Some(SweepSpec {
            name: "paper-incast".to_string(),
            cc: vec![
                CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
                CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
                CcSpec::new(ProtocolKind::Swift, Variant::Default),
                CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
            ],
            workload: WorkloadAxis::Incast {
                degrees: vec![16, 96],
            },
            ensemble: Ensemble::new(42, 3),
        }),
        "paper-datacenter" => Some(SweepSpec {
            name: "paper-datacenter".to_string(),
            cc: vec![
                CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
                CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
                CcSpec::new(ProtocolKind::Swift, Variant::Default),
                CcSpec::new(ProtocolKind::Swift, Variant::VaiSf),
            ],
            workload: WorkloadAxis::Datacenter {
                mixes: vec![
                    vec![distributions::FB_HADOOP.to_string()],
                    vec![
                        distributions::WEBSEARCH.to_string(),
                        distributions::ALI_STORAGE.to_string(),
                    ],
                ],
                loads: vec![0.5],
                full_scale: false,
            },
            ensemble: Ensemble::new(42, 3),
        }),
        "paper-faults" => Some(SweepSpec {
            name: "paper-faults".to_string(),
            cc: vec![
                CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
                CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
            ],
            workload: WorkloadAxis::Faults {
                mix: vec![distributions::FB_HADOOP.to_string()],
                loads: vec![0.5],
                cells: FaultCell::paper_grid(),
                full_scale: false,
            },
            ensemble: Ensemble::new(42, 3),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incast_spec() -> SweepSpec {
        SweepSpec {
            name: "t".to_string(),
            cc: vec![
                CcSpec::new(ProtocolKind::Hpcc, Variant::Default),
                CcSpec::new(ProtocolKind::Hpcc, Variant::VaiSf),
            ],
            workload: WorkloadAxis::Incast {
                degrees: vec![8, 16],
            },
            ensemble: Ensemble::new(7, 3),
        }
    }

    #[test]
    fn expansion_is_points_outer_cc_inner() {
        let cells = incast_spec().expand();
        assert_eq!(cells.len(), 4);
        assert_eq!(cells[0].id, "incast/deg=8/cc=hpcc");
        assert_eq!(cells[1].id, "incast/deg=8/cc=hpcc-vai-sf");
        assert_eq!(cells[2].id, "incast/deg=16/cc=hpcc");
        assert_eq!(cells[3].id, "incast/deg=16/cc=hpcc-vai-sf");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn seeds_are_shared_across_the_cc_axis_and_rooted() {
        let cells = incast_spec().expand();
        // Same point, different protocol: identical seed list (common
        // random numbers).
        assert_eq!(cells[0].seeds, cells[1].seeds);
        assert_ne!(cells[0].seeds, cells[2].seeds, "points draw distinct seeds");
        // Replicate 0 is the root seed for every point.
        assert_eq!(cells[0].seeds[0], 7);
        assert_eq!(cells[2].seeds[0], 7);
        assert_eq!(cells[0].seeds.len(), 3);
    }

    #[test]
    fn seed_derivation_is_rerun_stable_and_prefix_stable() {
        let e3 = Ensemble::new(42, 3);
        let e5 = Ensemble::new(42, 5);
        let a = e3.seeds_for("incast/deg=16");
        let b = e3.seeds_for("incast/deg=16");
        assert_eq!(a, b);
        // Growing the ensemble extends the list without rewriting it.
        assert_eq!(e5.seeds_for("incast/deg=16")[..3], a[..]);
    }

    #[test]
    fn json_round_trips() {
        for name in preset_names() {
            let spec = preset(name).expect("preset names are all defined");
            let back = SweepSpec::parse(&spec.to_json()).expect("round-trip parses");
            assert_eq!(back, spec, "preset {name} did not round-trip");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(SweepSpec::parse("not json").is_err());
        assert!(SweepSpec::parse(
            r#"{"name":"x","seed":1,"cc":[],"workload":{"kind":"incast","degrees":[8]}}"#
        )
        .is_err());
        assert!(SweepSpec::parse(
            r#"{"name":"x","seed":1,"cc":[{"protocol":"hpcc","variant":"nope"}],"workload":{"kind":"incast","degrees":[8]}}"#
        )
        .is_err());
        assert!(SweepSpec::parse(
            r#"{"name":"x","seed":1,"cc":[{"protocol":"hpcc","variant":"default"}],"workload":{"kind":"warp"}}"#
        )
        .is_err());
        // Half a flap is an error, not a silent default.
        assert!(SweepSpec::parse(
            r#"{"name":"x","seed":1,"cc":[{"protocol":"hpcc","variant":"default"}],
                "workload":{"kind":"faults","mix":["FB_Hadoop"],"loads":[0.5],
                "cells":[{"name":"b","loss":0.001,"flap_period_ns":1000}]}}"#
        )
        .is_err());
        // Values a run would panic on (or, for loss 2.0, silently accept):
        // each is named at parse time.
        let with_workload = |workload: &str| {
            SweepSpec::parse(&format!(
                r#"{{"name":"x","seed":1,"cc":[{{"protocol":"hpcc","variant":"default"}}],
                    "workload":{workload}}}"#
            ))
        };
        let faults = |cell: &str| {
            with_workload(&format!(
                r#"{{"kind":"faults","mix":["FB_Hadoop"],"loads":[0.5],"cells":[{cell}]}}"#
            ))
        };
        for (bad, says) in [
            (
                with_workload(r#"{"kind":"datacenter","mixes":[["Nope"]],"loads":[0.5]}"#),
                "valid: FB_Hadoop, WebSearch, Ali_Storage",
            ),
            (
                with_workload(r#"{"kind":"datacenter","mixes":[[]],"loads":[0.5]}"#),
                "at least one distribution",
            ),
            (
                with_workload(r#"{"kind":"incast","degrees":[0]}"#),
                "`degrees` must be >= 1",
            ),
            (
                with_workload(r#"{"kind":"datacenter","mixes":[["WebSearch"]],"loads":[1.5]}"#),
                "load 1.5 is not in (0, 1]",
            ),
            (
                with_workload(r#"{"kind":"datacenter","mixes":[["WebSearch"]],"loads":[0]}"#),
                "load 0 is not in (0, 1]",
            ),
            (faults(r#"{"name":"c","loss":2.0}"#), "not a probability"),
            (
                faults(r#"{"name":"c","loss":0,"flap_period_ns":1000,"flap_down_ns":1000}"#),
                "shorter than flap_period_ns",
            ),
        ] {
            let msg = bad.expect_err(says);
            assert!(msg.contains(says), "{msg:?} does not say {says:?}");
        }
    }

    #[test]
    fn replicates_default_to_one() {
        let spec = SweepSpec::parse(
            r#"{"name":"x","seed":9,"cc":[{"protocol":"swift","variant":"vai-sf"}],
                "workload":{"kind":"incast","degrees":[4]}}"#,
        )
        .expect("minimal spec parses");
        assert_eq!(spec.ensemble, Ensemble::single(9));
        assert_eq!(spec.cell_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate sweep cell id")]
    fn duplicate_axis_values_panic() {
        let mut spec = incast_spec();
        spec.cc.push(spec.cc[0]);
        spec.expand();
    }

    #[test]
    fn slugs_are_filename_safe() {
        assert_eq!(slug("HPCC 1Gbps"), "hpcc-1gbps");
        assert_eq!(slug("Swift VAI SF"), "swift-vai-sf");
        assert_eq!(slug("incast/deg=16/cc=hpcc"), "incast-deg-16-cc-hpcc");
        assert_eq!(slug("s=15"), "s-15");
    }

    #[test]
    fn wire_names_cover_every_protocol_and_variant() {
        for kind in [
            ProtocolKind::Hpcc,
            ProtocolKind::Swift,
            ProtocolKind::Dcqcn,
            ProtocolKind::Timely,
        ] {
            assert_eq!(protocol_from_str(protocol_name(kind)), Some(kind));
        }
        for variant in [
            Variant::Default,
            Variant::HighAi,
            Variant::Probabilistic,
            Variant::Vai,
            Variant::Sf,
            Variant::VaiSf,
        ] {
            assert_eq!(variant_from_str(variant_name(variant)), Some(variant));
        }
        assert_eq!(protocol_from_str("tcp"), None);
        assert_eq!(variant_from_str(""), None);
    }
}
