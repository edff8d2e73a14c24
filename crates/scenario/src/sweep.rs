//! Parameter sweeps: a [`Sweep`] takes a base [`Scenario`] plus a set of
//! [`Axis`] declarations (topology size `n`, loss rate, delay bound, …) and
//! expands them into a grid of concrete scenario runs — `replicates`
//! independent runs per grid point, each with a deterministic seed derived
//! from `(sweep name, axis point, replicate index)`.
//!
//! This is how the repository reproduces convergence *as a function of*
//! network size and fault rate (the shape of the claims in the paper's
//! Section 8 and the follow-up literature) instead of one topology at a
//! time: [`run_sweep`] fans the grid out across worker threads, keeps the
//! cross-engine differential checker on for **every** run, and reduces the
//! per-run metrics into per-grid-point statistics (see [`crate::agg`]).
//!
//! Sweeps are TOML documents just like scenarios:
//!
//! ```toml
//! name = "loss-rate-robustness"
//! description = "messages to convergence vs. message-loss probability"
//! base = "adversarial-loss"      # a built-in scenario, or an inline [base] table
//! replicates = 5
//!
//! [[axes]]
//! param = "loss"
//! values = [0.0, 0.1, 0.2, 0.3]
//! ```
//!
//! Determinism contract: the same sweep spec produces the same grid, the
//! same per-run seeds and therefore byte-identical aggregated JSON,
//! regardless of `--jobs`.

use crate::agg::{PointReport, ReplicateMetrics, SweepReport};
use crate::builtins;
use crate::fields::{
    self, Float, Form, Item, Keys, Kind, List, Named, Sub, Tag, Text, Uint, Visit,
};
use crate::report::Digest;
use crate::run::{run_scenario_with, RunConfig};
use crate::spec::{Scenario, SpecError, TopologySpec};
use dbf_matrix::blocked::decimal;
use dbf_matrix::WorkerPool;
use toml::Value;

/// A parameter a sweep axis can vary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisParam {
    /// Topology size (node count); resizes the base topology family.
    N,
    /// Message-loss probability (simulator), applied to every phase.
    Loss,
    /// Duplication probability (simulator + schedules), every phase.
    Duplicate,
    /// Reordering probability (schedules), every phase.
    Reorder,
    /// Per-step activation probability (schedules), every phase.
    Activation,
    /// Minimum link delay (simulator ticks), every phase.
    MinDelay,
    /// Maximum link delay / schedule lag bound, every phase.
    MaxDelay,
    /// δ-schedule horizon (steps), every phase.
    Horizon,
    /// The hop limit of the bounded hop-count algebra (an *algebra*
    /// parameter, not a fault knob); requires the base scenario to use the
    /// hopcount algebra.
    HopLimit,
}

impl AxisParam {
    /// The canonical lowercase name used in TOML and point labels.
    pub fn name(self) -> &'static str {
        Named::name(&self)
    }
}

impl Named for AxisParam {
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        use AxisParam::*;
        [
            ("n", N),
            ("loss", Loss),
            ("duplicate", Duplicate),
            ("reorder", Reorder),
            ("activation", Activation),
            ("min_delay", MinDelay),
            ("max_delay", MaxDelay),
            ("horizon", Horizon),
            ("hop_limit", HopLimit),
        ]
        .into_iter()
    }
}

/// One value on an axis; integers and floats keep their TOML type so the
/// round trip is lossless.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AxisValue {
    /// An integer value (`n`, delays, horizon).
    Int(u64),
    /// A floating-point value (probabilities).
    Float(f64),
}

impl AxisValue {
    /// The value as a float (used for aggregation labels).
    pub fn as_f64(self) -> f64 {
        match self {
            AxisValue::Int(v) => v as f64,
            AxisValue::Float(v) => v,
        }
    }

    /// The value as an integer, if it is one.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            AxisValue::Int(v) => Some(v),
            AxisValue::Float(_) => None,
        }
    }

    pub(crate) fn to_json(self) -> crate::report::Json {
        match self {
            AxisValue::Int(v) => crate::report::Json::uint(v),
            AxisValue::Float(v) => crate::report::Json::Num(v),
        }
    }
}

impl std::fmt::Display for AxisValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxisValue::Int(v) => write!(f, "{v}"),
            AxisValue::Float(v) => write!(f, "{v}"),
        }
    }
}

/// One sweep axis: a parameter and the values it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Which parameter this axis varies.
    pub param: AxisParam,
    /// The values the parameter takes, in declaration order.
    pub values: Vec<AxisValue>,
}

/// A parameter sweep over a base scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Machine-friendly name (used as the report key and in seed
    /// derivation, so renaming a sweep reseeds it).
    pub name: String,
    /// Human description.
    pub description: String,
    /// The scenario every grid point is derived from.
    pub base: Scenario,
    /// When the base was referenced by built-in name, that name (kept so
    /// the TOML round trip is lossless).
    pub base_ref: Option<String>,
    /// Independent runs per grid point (each with its own derived seed).
    pub replicates: usize,
    /// The axes; the grid is their cartesian product (first axis slowest).
    pub axes: Vec<Axis>,
}

/// One point of the expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// Position in the full grid (stable under `--point` filtering, so
    /// reproduction commands can name it).
    pub index: usize,
    /// The `(param, value)` assignments of this point, in axis order.
    pub assignments: Vec<(AxisParam, AxisValue)>,
}

impl GridPoint {
    /// A compact human label, e.g. `n=64,loss=0.2`.
    pub fn label(&self) -> String {
        self.assignments
            .iter()
            .map(|(p, v)| format!("{}={v}", p.name()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl Sweep {
    /// Check cross-field invariants, including that every grid point can be
    /// derived from the base scenario (e.g. the `n` axis is rejected for
    /// topology families without a meaningful size knob).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::new("sweep name must not be empty"));
        }
        if self.replicates == 0 {
            return Err(SpecError::new("a sweep needs at least one replicate"));
        }
        if self.axes.is_empty() {
            return Err(SpecError::new("a sweep needs at least one axis"));
        }
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(SpecError::new(format!(
                    "axis {:?} needs at least one value",
                    axis.param.name()
                )));
            }
            // Duplicate values would give distinct grid points identical
            // labels and therefore identical derived seeds, breaking the
            // one-seed-per-cell contract.  Compare rendered labels, not
            // variants: `0` and `0.0` alias the same label.
            for (k, v) in axis.values.iter().enumerate() {
                let label = v.to_string();
                if axis.values[..k].iter().any(|w| w.to_string() == label) {
                    return Err(SpecError::new(format!(
                        "axis {:?} lists the value {v} twice",
                        axis.param.name()
                    )));
                }
            }
        }
        for (k, axis) in self.axes.iter().enumerate() {
            if self.axes[..k].iter().any(|a| a.param == axis.param) {
                return Err(SpecError::new(format!(
                    "axis param {:?} appears twice",
                    axis.param.name()
                )));
            }
        }
        self.base.validate()?;
        for point in self.grid() {
            self.derive_scenario(&point, 0)?;
        }
        Ok(())
    }

    /// The total number of grid points (the product of the axis lengths).
    pub fn point_count(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Expand the axes into the full grid: the cartesian product of the
    /// axis values, first axis slowest (row-major).
    pub fn grid(&self) -> Vec<GridPoint> {
        let total = self.point_count();
        let mut out = Vec::with_capacity(total);
        for index in 0..total {
            let mut rest = index;
            let mut assignments = Vec::with_capacity(self.axes.len());
            for axis in self.axes.iter().rev() {
                let len = axis.values.len();
                assignments.push((axis.param, axis.values[rest % len]));
                rest /= len;
            }
            assignments.reverse();
            out.push(GridPoint { index, assignments });
        }
        out
    }

    /// The deterministic seed of one run: a hash of the sweep name, the
    /// grid point label and the replicate index.  Independent of job count
    /// and execution order by construction.
    pub fn run_seed(&self, point: &GridPoint, replicate: usize) -> u64 {
        let mut d = Digest::default();
        d.update(&self.name);
        d.update("|");
        d.update(&point.label());
        d.update("|r");
        d.update(decimal(replicate as u64, &mut [0; 20]));
        // One SplitMix64 finalisation round so nearby labels do not yield
        // nearby seeds.
        let mut z = d.value().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The concrete scenario of one `(grid point, replicate)` cell: the
    /// base with the point's parameter overrides applied, seeded with
    /// [`Sweep::run_seed`] (which also reseeds random topology families, so
    /// replicates sample different graphs).
    pub fn derive_scenario(
        &self,
        point: &GridPoint,
        replicate: usize,
    ) -> Result<Scenario, SpecError> {
        let mut s = self.base.clone();
        for &(param, value) in &point.assignments {
            match param {
                AxisParam::N => {
                    let n = int_axis(param, value)? as usize;
                    s.topology = resize_topology(&s.topology, n)?;
                }
                AxisParam::Loss => for_each_phase(&mut s, |f| f.loss = value.as_f64()),
                AxisParam::Duplicate => for_each_phase(&mut s, |f| f.duplicate = value.as_f64()),
                AxisParam::Reorder => for_each_phase(&mut s, |f| f.reorder = value.as_f64()),
                AxisParam::Activation => for_each_phase(&mut s, |f| f.activation = value.as_f64()),
                AxisParam::MinDelay => {
                    let v = int_axis(param, value)?;
                    for_each_phase(&mut s, |f| f.min_delay = v);
                }
                AxisParam::MaxDelay => {
                    let v = int_axis(param, value)?;
                    for_each_phase(&mut s, |f| f.max_delay = v);
                }
                AxisParam::Horizon => {
                    let v = int_axis(param, value)? as usize;
                    for_each_phase(&mut s, |f| f.horizon = v);
                }
                AxisParam::HopLimit => {
                    let v = int_axis(param, value)?;
                    match &mut s.algebra {
                        crate::spec::AlgebraSpec::Hopcount { limit } => *limit = v,
                        other => {
                            return Err(SpecError::new(format!(
                                "axis hop_limit varies the hopcount algebra's limit; the base \
                                 scenario uses {other:?}"
                            )))
                        }
                    }
                }
            }
        }
        // Per-engine size capabilities: engines whose recommended maximum
        // the derived topology exceeds are dropped automatically, so one
        // sweep can span 10¹–10⁴ nodes without hand-tuning a per-point
        // engine list (the registry's shared eligibility filter, not the
        // sweep, knows each engine's limits).  If every requested engine
        // is over budget the list is kept as written — an explicit request
        // beats a recommendation.
        let kept = crate::engine::eligible_engines(&s, &s.engines, false);
        if !kept.is_empty() {
            s.engines = kept;
        }
        let seed = self.run_seed(point, replicate);
        // Stochastic engines get the derived seed; random topology families
        // are reseeded too, so replicates are statistically independent.
        s.seeds = vec![seed];
        match &mut s.topology {
            TopologySpec::ConnectedRandom { seed: t, .. } => *t = seed ^ 0x5EED_5EED_5EED_5EED,
            TopologySpec::AsGraph { seed: t, .. } => *t = seed ^ 0x5EED_5EED_5EED_5EED,
            TopologySpec::Tiered { seed: t, .. } => *t = seed ^ 0x5EED_5EED_5EED_5EED,
            _ => {}
        }
        s.name = format!("{}[{}]r{replicate}", self.base.name, point.label());
        s.validate()?;
        Ok(s)
    }
}

fn int_axis(param: AxisParam, value: AxisValue) -> Result<u64, SpecError> {
    value.as_u64().ok_or_else(|| {
        SpecError::new(format!(
            "axis {} needs integer values, got {value}",
            param.name()
        ))
    })
}

fn for_each_phase(s: &mut Scenario, mut f: impl FnMut(&mut crate::spec::FaultSpec)) {
    for phase in &mut s.phases {
        f(&mut phase.faults);
    }
}

/// Resize a topology family to (approximately) `n` nodes.
///
/// Families with a single size knob (`line`, `ring`, `star`, `complete`,
/// `connected_random`, `as_graph`) get exactly `n` nodes; `grid` gets the
/// most square `rows × cols ≥ n` arrangement; `leaf_spine` keeps its spine
/// count and resizes the leaf tier to `n - spines`.  Families whose shape
/// is not parameterised by a node count (`tiered`, `explicit`, `gadget`)
/// reject the `n` axis.  The resized shape must pass the family's one
/// size rule (`TopologySpec::check_shape`, which `Scenario::validate` asks).
pub fn resize_topology(t: &TopologySpec, n: usize) -> Result<TopologySpec, SpecError> {
    let resized = match *t {
        TopologySpec::Line { .. } => TopologySpec::Line { n },
        TopologySpec::Ring { .. } => TopologySpec::Ring { n },
        TopologySpec::Star { .. } => TopologySpec::Star { n },
        TopologySpec::Complete { .. } => TopologySpec::Complete { n },
        TopologySpec::Grid { .. } => {
            let rows = (n as f64).sqrt().floor().max(1.0) as usize;
            let cols = n.div_ceil(rows);
            TopologySpec::Grid { rows, cols }
        }
        TopologySpec::ConnectedRandom { p, seed, .. } => {
            TopologySpec::ConnectedRandom { n, p, seed }
        }
        TopologySpec::AsGraph { m, seed, .. } => TopologySpec::AsGraph { n, m, seed },
        TopologySpec::LeafSpine { spines, .. } => TopologySpec::LeafSpine {
            spines,
            leaves: n.checked_sub(spines).ok_or_else(|| {
                SpecError::new(format!(
                    "axis n: a leaf_spine fabric with {spines} spines needs n >= {spines}"
                ))
            })?,
        },
        ref other @ (TopologySpec::Tiered { .. }
        | TopologySpec::Explicit { .. }
        | TopologySpec::Gadget) => {
            return Err(SpecError::new(format!(
                "the n axis cannot resize topology family {other:?}"
            )));
        }
    };
    resized.check_shape()?;
    Ok(resized)
}

// ---------------------------------------------------------------------
// TOML codec: one key list per type (see `crate::fields`)
// ---------------------------------------------------------------------

impl Sweep {
    /// Serialize to TOML text.
    pub fn to_toml_string(&self) -> String {
        fields::write_toml(self)
    }

    /// Parse and validate a TOML document.  A string `base` is resolved
    /// against the built-in scenario library; a table `base` is parsed as
    /// an inline scenario.
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        let sweep: Self = fields::read_toml(input)?;
        sweep.validate()?;
        Ok(sweep)
    }
}

impl Keys for Sweep {
    fn blank() -> Self {
        Sweep {
            name: String::new(),
            description: String::new(),
            base: Scenario::blank(),
            base_ref: None,
            replicates: 1,
            axes: Vec::new(),
        }
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        // One key, two fields: a builtin's name is kept so the round trip
        // writes the name back rather than the scenario it names.
        let base = std::mem::replace(&mut self.base, Scenario::blank());
        let mut base = (self.base_ref.take(), base);
        f.req("base", &mut base, Base)?;
        (self.base_ref, self.base) = base;
        f.req("name", &mut self.name, Text)?;
        f.opt("description", &mut self.description, Text)?;
        f.opt("replicates", &mut self.replicates, Uint)?;
        f.req("axes", &mut self.axes, List(Sub))
    }
}

/// A sweep's `base`: a built-in scenario's name, or an inline scenario
/// table.
struct Base;

impl Kind<(Option<String>, Scenario)> for Base {
    fn read(&self, item: &Item<'_>) -> Result<(Option<String>, Scenario), SpecError> {
        let Ok(name) = item.string() else {
            return Ok((None, Sub.read(item)?));
        };
        let scenario = builtins::by_name(&name)
            .ok_or_else(|| item.err(format!("{name:?} is not a built-in (`scenarios list`)")))?;
        Ok((Some(name), scenario))
    }

    fn write(&self, (name, scenario): &mut (Option<String>, Scenario)) -> Value {
        match name {
            Some(name) => Text.write(name),
            None => Sub.write(scenario),
        }
    }
}

impl Keys for Axis {
    fn blank() -> Self {
        Axis {
            param: AxisParam::N,
            values: Vec::new(),
        }
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        f.req("param", &mut self.param, Tag)?;
        f.req("values", &mut self.values, List(Number))
    }
}

/// An axis value keeps its TOML type: an integer stays an integer.
struct Number;

impl Kind<AxisValue> for Number {
    fn read(&self, item: &Item<'_>) -> Result<AxisValue, SpecError> {
        match item.is_integer() {
            true => Uint.read(item).map(AxisValue::Int),
            false => Float.read(item).map(AxisValue::Float),
        }
    }

    fn write(&self, value: &mut AxisValue) -> Value {
        match value {
            AxisValue::Int(v) => Uint.write(v),
            AxisValue::Float(v) => Float.write(v),
        }
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Options for [`run_sweep`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepRunOptions {
    /// Worker threads across runs (`0`/`1` means run inline on the calling
    /// thread).
    pub jobs: usize,
    /// Run only the grid point with this index (reproduction mode).
    pub point: Option<usize>,
    /// Run only this replicate index (reproduction mode).
    pub replicate: Option<usize>,
    /// Worker threads *within* each run, for the parallelizable engines
    /// (`0`/`1` means sequential — the right default while `jobs` already
    /// saturates the machine across runs; raise it for single-run
    /// reproduction or grids dominated by one huge point).  Never changes
    /// the aggregated report, only its wall-clock section.
    pub threads: usize,
}

/// Execute a sweep: expand the grid, fan the runs out across `jobs` worker
/// threads, keep the differential checker on for every run, and aggregate
/// per-grid-point statistics.
///
/// The aggregated report is deterministic in the spec: the same sweep with
/// the same seeds produces byte-identical [`SweepReport::to_json`] output
/// for any job count (wall-clock timing is kept out of the deterministic
/// section).
pub fn run_sweep(sweep: &Sweep, opts: &SweepRunOptions) -> Result<SweepReport, SpecError> {
    sweep.validate()?;
    let grid = sweep.grid();
    let selected: Vec<GridPoint> = grid
        .into_iter()
        .filter(|p| opts.point.is_none_or(|want| p.index == want))
        .collect();
    if selected.is_empty() {
        return Err(SpecError::new(format!(
            "--point {} is out of range (the grid has {} points)",
            opts.point.unwrap_or(0),
            sweep.point_count()
        )));
    }
    if let Some(r) = opts.replicate {
        if r >= sweep.replicates {
            return Err(SpecError::new(format!(
                "--replicate {r} is out of range (the sweep has {} replicates)",
                sweep.replicates
            )));
        }
    }
    let replicate_ids: Vec<usize> = (0..sweep.replicates)
        .filter(|r| opts.replicate.is_none_or(|want| *r == want))
        .collect();
    // Derive every cell up front so spec-level errors surface before any
    // work is spawned.
    let mut tasks = Vec::with_capacity(selected.len() * replicate_ids.len());
    for point in &selected {
        for &r in &replicate_ids {
            let scenario = sweep.derive_scenario(point, r)?;
            let seed = sweep.run_seed(point, r);
            tasks.push((point.index, r, seed, scenario));
        }
    }
    let run_cfg = RunConfig {
        threads: opts.threads.max(1),
    };
    let results = WorkerPool::shared().map(
        opts.jobs,
        tasks,
        |(point_index, replicate, seed, scenario)| {
            let outcome = run_scenario_with(&scenario, &run_cfg);
            (point_index, replicate, seed, outcome)
        },
    );
    let mut by_point: Vec<Vec<ReplicateMetrics>> = vec![Vec::new(); selected.len()];
    for (point_index, replicate, seed, outcome) in results {
        let report = outcome.map_err(|e| {
            SpecError::new(format!(
                "point {point_index} replicate {replicate}: {}",
                e.message
            ))
        })?;
        let slot = selected
            .iter()
            .position(|p| p.index == point_index)
            .expect("result for a point that was scheduled");
        by_point[slot].push(ReplicateMetrics::from_report(replicate, seed, &report));
    }
    let points: Vec<PointReport> = selected
        .iter()
        .zip(by_point)
        .map(|(point, mut metrics)| {
            // Replicates arrive in scheduling order already, but sort
            // defensively: aggregation must not depend on worker timing.
            metrics.sort_by_key(|m| m.replicate);
            PointReport::aggregate(point, metrics)
        })
        .collect();
    Ok(SweepReport {
        sweep: sweep.name.clone(),
        description: sweep.description.clone(),
        base: sweep.base.name.clone(),
        replicates: sweep.replicates,
        threads: run_cfg.threads,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgebraSpec, EngineKind, Expectation, PhaseSpec};

    fn tiny_sweep() -> Sweep {
        Sweep {
            name: "t-sweep".into(),
            description: "test fixture".into(),
            base: Scenario {
                name: "t-base".into(),
                description: String::new(),
                topology: TopologySpec::Ring { n: 4 },
                algebra: AlgebraSpec::Hopcount { limit: 16 },
                engines: vec![EngineKind::Sync, EngineKind::Sim],
                seeds: vec![1],
                phases: vec![PhaseSpec::quiet("run")],
                expect: Expectation::default(),
            },
            base_ref: None,
            replicates: 2,
            axes: vec![
                Axis {
                    param: AxisParam::N,
                    values: vec![AxisValue::Int(4), AxisValue::Int(6), AxisValue::Int(8)],
                },
                Axis {
                    param: AxisParam::Loss,
                    values: vec![AxisValue::Float(0.0), AxisValue::Float(0.2)],
                },
            ],
        }
    }

    #[test]
    fn grid_expansion_is_the_cartesian_product_first_axis_slowest() {
        let sweep = tiny_sweep();
        let grid = sweep.grid();
        assert_eq!(grid.len(), 6);
        assert_eq!(sweep.point_count(), 6);
        assert_eq!(grid[0].label(), "n=4,loss=0");
        assert_eq!(grid[1].label(), "n=4,loss=0.2");
        assert_eq!(grid[2].label(), "n=6,loss=0");
        assert_eq!(grid[5].label(), "n=8,loss=0.2");
        for (k, p) in grid.iter().enumerate() {
            assert_eq!(p.index, k);
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct_per_cell() {
        let sweep = tiny_sweep();
        let grid = sweep.grid();
        let mut seeds = Vec::new();
        for p in &grid {
            for r in 0..sweep.replicates {
                seeds.push(sweep.run_seed(p, r));
            }
        }
        let rerun: Vec<u64> = grid
            .iter()
            .flat_map(|p| (0..sweep.replicates).map(|r| sweep.run_seed(p, r)))
            .collect();
        assert_eq!(seeds, rerun, "seeds are a pure function of the spec");
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "every cell gets its own seed");
    }

    #[test]
    fn derived_scenarios_apply_overrides() {
        let sweep = tiny_sweep();
        let grid = sweep.grid();
        let s = sweep.derive_scenario(&grid[5], 1).unwrap();
        assert_eq!(s.topology, TopologySpec::Ring { n: 8 });
        assert!((s.phases[0].faults.loss - 0.2).abs() < 1e-12);
        assert_eq!(s.seeds, vec![sweep.run_seed(&grid[5], 1)]);
    }

    #[test]
    fn resize_covers_the_sized_families_and_rejects_the_rest() {
        assert_eq!(
            resize_topology(&TopologySpec::Line { n: 2 }, 9).unwrap(),
            TopologySpec::Line { n: 9 }
        );
        assert_eq!(
            resize_topology(
                &TopologySpec::LeafSpine {
                    spines: 4,
                    leaves: 2
                },
                10
            )
            .unwrap(),
            TopologySpec::LeafSpine {
                spines: 4,
                leaves: 6
            }
        );
        let TopologySpec::Grid { rows, cols } =
            resize_topology(&TopologySpec::Grid { rows: 1, cols: 1 }, 12).unwrap()
        else {
            panic!("grid stays a grid")
        };
        assert!(rows * cols >= 12 && rows <= cols);
        assert!(resize_topology(&TopologySpec::Ring { n: 5 }, 2).is_err());
        assert!(resize_topology(&TopologySpec::Gadget, 5).is_err());
        assert!(resize_topology(
            &TopologySpec::Explicit {
                nodes: 2,
                links: vec![(0, 1)]
            },
            5
        )
        .is_err());
    }

    #[test]
    fn engine_capabilities_prune_oversized_grid_points() {
        // The registry declares per-engine size recommendations; the sweep
        // deriver consults them so one grid can span 10¹–10⁴ nodes without
        // a hand-tuned per-point engine list.
        let mut sweep = tiny_sweep();
        sweep.base.engines = vec![
            EngineKind::Sync,
            EngineKind::Incremental,
            EngineKind::Sim,
            EngineKind::Rip,
        ];
        sweep.axes = vec![Axis {
            param: AxisParam::N,
            values: vec![AxisValue::Int(8), AxisValue::Int(300), AxisValue::Int(600)],
        }];
        let grid = sweep.grid();
        let small = sweep.derive_scenario(&grid[0], 0).unwrap();
        assert_eq!(small.engines.len(), 4, "all engines fit n=8");
        let medium = sweep.derive_scenario(&grid[1], 0).unwrap();
        assert_eq!(
            medium.engines,
            vec![EngineKind::Sync, EngineKind::Incremental, EngineKind::Sim],
            "rip (max 256) is dropped at n=300"
        );
        let large = sweep.derive_scenario(&grid[2], 0).unwrap();
        assert_eq!(
            large.engines,
            vec![EngineKind::Sync, EngineKind::Incremental],
            "sim (max 512) is dropped at n=600"
        );

        // An explicit request that nothing survives is kept as written so
        // validation can explain the problem instead of running nothing.
        sweep.base.engines = vec![EngineKind::Rip];
        let kept = sweep.derive_scenario(&grid[2], 0).unwrap();
        assert_eq!(kept.engines, vec![EngineKind::Rip]);
    }

    #[test]
    fn the_builtin_scaling_sweep_derives_engines_from_capabilities() {
        let sweep = crate::sweeps::by_name("widest-fabric-scaling").unwrap();
        let grid = sweep.grid();
        let at = |k: usize| sweep.derive_scenario(&grid[k], 0).unwrap().engines;
        assert!(at(0).contains(&EngineKind::Sim), "n=10 keeps the simulator");
        assert!(at(1).contains(&EngineKind::Delta), "n=100 keeps delta");
        assert_eq!(
            at(2),
            vec![EngineKind::Sync, EngineKind::Incremental],
            "n=1000 drops the per-message engines automatically"
        );
        assert_eq!(at(3), vec![EngineKind::Sync, EngineKind::Incremental]);
    }

    #[test]
    fn hop_limit_axis_requires_the_hopcount_algebra() {
        // On a hopcount base the axis rewrites the algebra's limit…
        let mut sweep = tiny_sweep();
        sweep.axes = vec![Axis {
            param: AxisParam::HopLimit,
            values: vec![AxisValue::Int(4), AxisValue::Int(32)],
        }];
        assert!(sweep.validate().is_ok(), "{:?}", sweep.validate());
        let grid = sweep.grid();
        let derived = sweep.derive_scenario(&grid[1], 0).unwrap();
        assert_eq!(derived.algebra, AlgebraSpec::Hopcount { limit: 32 });

        // …zero would make every route invalid-after-one-hop nonsense…
        sweep.axes[0].values = vec![AxisValue::Int(0)];
        assert!(sweep.validate().is_err(), "hop limit 0 is rejected");

        // …and any other algebra rejects the axis at validation time.
        let mut sweep = tiny_sweep();
        sweep.base.algebra = AlgebraSpec::Shortest {
            weights: crate::spec::WeightRule::uniform(1),
        };
        sweep.axes = vec![Axis {
            param: AxisParam::HopLimit,
            values: vec![AxisValue::Int(8)],
        }];
        let err = sweep
            .validate()
            .expect_err("shortest paths has no hop limit");
        assert!(err.message.contains("hop_limit"), "{err}");
    }

    #[test]
    fn toml_round_trip_is_lossless() {
        let sweep = tiny_sweep();
        let text = sweep.to_toml_string();
        let back = Sweep::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(sweep, back, "serialized form:\n{text}");
    }

    #[test]
    fn base_can_reference_a_builtin_by_name() {
        let text = r#"
            name = "by-ref"
            base = "count-to-infinity"
            replicates = 2
            [[axes]]
            param = "loss"
            values = [0.0, 0.1]
        "#;
        let sweep = Sweep::from_toml_str(text).unwrap();
        assert_eq!(sweep.base.name, "count-to-infinity");
        assert_eq!(sweep.base_ref.as_deref(), Some("count-to-infinity"));
        let again = Sweep::from_toml_str(&sweep.to_toml_string()).unwrap();
        assert_eq!(sweep, again);
    }

    #[test]
    fn negative_axis_values_are_rejected_not_wrapped() {
        let text = r#"
            name = "negative"
            base = "count-to-infinity"
            [[axes]]
            param = "max_delay"
            values = [-1]
        "#;
        let err = Sweep::from_toml_str(text).expect_err("-1 must not wrap to u64::MAX");
        assert!(err.message.contains("non-negative"), "{err}");
    }

    #[test]
    fn validation_rejects_malformed_sweeps() {
        let mut s = tiny_sweep();
        s.axes.clear();
        assert!(s.validate().is_err(), "no axes");

        let mut s = tiny_sweep();
        s.replicates = 0;
        assert!(s.validate().is_err(), "no replicates");

        let mut s = tiny_sweep();
        s.axes.push(s.axes[0].clone());
        assert!(s.validate().is_err(), "duplicate axis param");

        let mut s = tiny_sweep();
        s.axes[1].values.push(AxisValue::Float(0.2));
        assert!(
            s.validate().is_err(),
            "duplicate axis values would alias grid-point seeds"
        );

        let mut s = tiny_sweep();
        s.base.topology = TopologySpec::Explicit {
            nodes: 4,
            links: vec![(0, 1), (1, 2), (2, 3)],
        };
        assert!(s.validate().is_err(), "n axis on an unsized family");

        assert!(tiny_sweep().validate().is_ok());
    }

    #[test]
    fn out_of_range_filters_are_rejected() {
        let sweep = tiny_sweep();
        assert!(run_sweep(
            &sweep,
            &SweepRunOptions {
                jobs: 1,
                point: Some(99),
                ..Default::default()
            }
        )
        .is_err());
        assert!(run_sweep(
            &sweep,
            &SweepRunOptions {
                jobs: 1,
                point: Some(0),
                replicate: Some(7),
                ..Default::default()
            }
        )
        .is_err());
    }
}
