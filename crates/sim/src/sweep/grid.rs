//! The scenario grid: the cross-product of sweep axes, resolved into
//! concrete scenarios and cells.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use teg_device::VariationModel;
use teg_reconfig::SchemeSpec;

use crate::error::SimError;
use crate::fault::{FaultPlan, FaultSeverity};
use crate::scenario::Scenario;
use crate::trace_cache::{ThermalKey, TraceCache};

/// Whether a label/name may appear inside a compact grid spec: the spec
/// grammar reserves `|` `,` `=` between fields, `:` and `+` inside tokens,
/// and whitespace for readability.
pub(crate) fn label_is_spec_safe(label: &str) -> bool {
    !label.is_empty()
        && label
            .chars()
            .all(|c| !c.is_whitespace() && !matches!(c, '|' | ',' | '=' | ':' | '+'))
}

/// The compact token of a [`FaultSeverity`]: a named preset when the rates
/// match one, raw `<module>/<switch>/<sensor>` rates otherwise (`f64`
/// `Display` round-trips exactly).
fn severity_token(severity: FaultSeverity) -> String {
    for (name, preset) in [
        ("light", FaultSeverity::light()),
        ("moderate", FaultSeverity::moderate()),
        ("severe", FaultSeverity::severe()),
    ] {
        if severity == preset {
            return name.to_owned();
        }
    }
    format!(
        "{}/{}/{}",
        severity.module_rate(),
        severity.switch_rate(),
        severity.sensor_rate()
    )
}

fn parse_severity(token: &str) -> Option<FaultSeverity> {
    match token {
        "light" => return Some(FaultSeverity::light()),
        "moderate" => return Some(FaultSeverity::moderate()),
        "severe" => return Some(FaultSeverity::severe()),
        _ => {}
    }
    let mut rates = token.split('/');
    let module: f64 = rates.next()?.parse().ok()?;
    let switch: f64 = rates.next()?.parse().ok()?;
    let sensor: f64 = rates.next()?.parse().ok()?;
    if rates.next().is_some() {
        return None;
    }
    FaultSeverity::new(module, switch, sensor).ok()
}

/// One drive-cycle variant of the sweep: a label plus the parameters fed to
/// the scenario builder.
///
/// The synthetic drive generator is parameterised by duration and seed; the
/// seed is a separate grid axis, so a profile is the duration with a
/// human-readable label that ends up in every [`CellKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriveProfile {
    label: String,
    duration_seconds: usize,
}

impl DriveProfile {
    /// A profile of the given duration, labelled `"{duration}s"`.
    #[must_use]
    pub fn seconds(duration_seconds: usize) -> Self {
        Self {
            label: format!("{duration_seconds}s"),
            duration_seconds,
        }
    }

    /// A profile with an explicit label (e.g. `"city"`, `"highway"`).
    #[must_use]
    pub fn named(label: impl Into<String>, duration_seconds: usize) -> Self {
        Self {
            label: label.into(),
            duration_seconds,
        }
    }

    /// The paper's 800-second evaluation drive.
    #[must_use]
    pub fn paper_800s() -> Self {
        Self::named("porter-ii-800s", 800)
    }

    /// The label recorded in every cell key using this profile.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Drive duration in seconds (1 Hz sampling).
    #[must_use]
    pub const fn duration_seconds(&self) -> usize {
        self.duration_seconds
    }

    /// The compact token this profile serialises to — `<label>:<seconds>`,
    /// round-tripped by [`DriveProfile::parse`].  `None` when the label
    /// contains characters the spec grammar reserves.
    #[must_use]
    pub fn spec(&self) -> Option<String> {
        label_is_spec_safe(&self.label).then(|| format!("{}:{}", self.label, self.duration_seconds))
    }

    /// Parses a `<label>:<seconds>` token back into a profile.  Returns
    /// `None` for malformed tokens (missing separator, unparsable or zero
    /// duration, reserved characters in the label).
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        let (label, seconds) = token.split_once(':')?;
        let duration_seconds: usize = seconds.parse().ok()?;
        if duration_seconds == 0 || !label_is_spec_safe(label) {
            return None;
        }
        Some(Self::named(label, duration_seconds))
    }
}

/// A named field of schemes competing in one cell, parameterised by the
/// cell's module count (the static baseline's wiring depends on it).
///
/// Lineups hold [`SchemeSpec`] factories rather than scheme instances, so a
/// sweep can mint fresh, independent instances for every cell on whatever
/// worker thread picks it up.
#[derive(Clone)]
pub struct SchemeLineup {
    name: String,
    spec: Option<String>,
    factory: Arc<dyn Fn(usize) -> Vec<SchemeSpec> + Send + Sync>,
}

impl SchemeLineup {
    /// The paper's Table I field: DNOR, INOR, EHTR and the square-grid
    /// baseline sized for each cell's module count.
    #[must_use]
    pub fn paper() -> Self {
        Self::parameterised("paper", SchemeSpec::paper_field).tagged("paper".into())
    }

    /// A lineup with a fixed set of specs, identical for every module count.
    #[must_use]
    pub fn fixed(name: impl Into<String>, specs: Vec<SchemeSpec>) -> Self {
        let name = name.into();
        let spec = (label_is_spec_safe(&name))
            .then(|| {
                specs
                    .iter()
                    .map(|s| s.spec().map(str::to_owned))
                    .collect::<Option<Vec<_>>>()
            })
            .flatten()
            .map(|tokens| format!("fixed:{name}:{}", tokens.join("+")));
        Self {
            name,
            spec,
            factory: Arc::new(move |_| specs.clone()),
        }
    }

    /// A lineup whose specs are derived from the cell's module count.
    pub fn parameterised<F>(name: impl Into<String>, factory: F) -> Self
    where
        F: Fn(usize) -> Vec<SchemeSpec> + Send + Sync + 'static,
    {
        Self {
            name: name.into(),
            spec: None,
            factory: Arc::new(factory),
        }
    }

    fn tagged(mut self, spec: String) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The lineup's name, recorded in every cell key using it.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compact token this lineup serialises to, when it was built from
    /// one of the named presets or from [`SchemeLineup::fixed`] over
    /// preset-token schemes ([`SchemeLineup::parse`] round-trips it).
    /// Lineups over arbitrary constructors have no token and return `None`.
    #[must_use]
    pub fn spec(&self) -> Option<&str> {
        self.spec.as_deref()
    }

    /// Parses a lineup token back into the lineup that emitted it:
    /// `paper` or `fixed:<name>:<tok>+<tok>+…` where each `tok` follows the
    /// [`SchemeSpec::parse`] grammar — plus the bare token `baseline`, which
    /// fields the square-grid baseline sized for each cell's module count.
    /// Returns `None` for unknown tokens or malformed parameters.
    ///
    /// `paper-fixed:<seconds>` is a legacy alias that fields the `paper`
    /// schemes but keeps the name `paper-fixed` (cell keys carry it) and its
    /// own token: the seconds must be finite and non-negative and are
    /// otherwise ignored, since the session's `RuntimePolicy::Fixed`
    /// sets the per-decision charge.
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        if token == "paper" {
            return Some(Self::paper());
        }
        if let Some(value) = token.strip_prefix("paper-fixed:") {
            let seconds: f64 = value.parse().ok()?;
            if !(seconds.is_finite() && seconds >= 0.0) {
                return None;
            }
            return Some(
                Self::parameterised("paper-fixed", SchemeSpec::paper_field)
                    .tagged(format!("paper-fixed:{seconds}")),
            );
        }
        let rest = token.strip_prefix("fixed:")?;
        let (name, tokens) = rest.split_once(':')?;
        if !label_is_spec_safe(name) {
            return None;
        }
        let tokens: Vec<String> = tokens.split('+').map(str::to_owned).collect();
        for tok in &tokens {
            if tok != "baseline" && SchemeSpec::parse(tok).is_none() {
                return None;
            }
        }
        let canonical = format!("fixed:{name}:{}", tokens.join("+"));
        let field = tokens.clone();
        Some(
            Self::parameterised(name, move |module_count| {
                field
                    .iter()
                    .map(|tok| {
                        if tok == "baseline" {
                            SchemeSpec::baseline_square_grid(module_count)
                        } else {
                            SchemeSpec::parse(tok).expect("tokens validated at parse time")
                        }
                    })
                    .collect()
            })
            .tagged(canonical),
        )
    }

    /// The specs this lineup fields for an array of `module_count` modules.
    #[must_use]
    pub fn specs(&self, module_count: usize) -> Vec<SchemeSpec> {
        (self.factory)(module_count)
    }
}

impl fmt::Debug for SchemeLineup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeLineup")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// One degradation variant of the sweep: a label plus the recipe producing a
/// [`FaultPlan`] for each cell's array size, drive length and seed.
///
/// Like [`SchemeLineup`], profiles hold a factory rather than a plan, so one
/// profile spans cells of different module counts — a "severe" profile
/// faults ~30 % of the plant whether the cell has 10 modules or 1000.
#[derive(Clone)]
pub struct FaultProfile {
    label: String,
    spec: Option<String>,
    recipe: Arc<dyn Fn(usize, usize, u64) -> FaultPlan + Send + Sync>,
}

impl FaultProfile {
    /// The healthy profile: every cell runs without faults (the default
    /// fault axis).
    #[must_use]
    pub fn none() -> Self {
        Self::parameterised("healthy", |_, _, _| FaultPlan::none()).tagged("healthy".into())
    }

    /// A profile replaying one fixed plan in every cell (the plan must be
    /// valid for every module count on the grid's axis).
    #[must_use]
    pub fn fixed(label: impl Into<String>, plan: FaultPlan) -> Self {
        let label = label.into();
        let spec = label_is_spec_safe(&label)
            .then(|| format!("fixed:{label}:{}:{}", plan.sensor_seed(), plan.spec()));
        Self {
            label,
            spec,
            recipe: Arc::new(move |_, _, _| plan.clone()),
        }
    }

    /// A profile generating a seeded [`FaultPlan::random`] of the given
    /// severity per cell, deterministic in the cell's (module count,
    /// duration, seed) coordinates.
    #[must_use]
    pub fn random(label: impl Into<String>, severity: FaultSeverity) -> Self {
        let label = label.into();
        let spec = label_is_spec_safe(&label)
            .then(|| format!("random:{label}:{}", severity_token(severity)));
        let mut profile = Self::parameterised(label, move |modules, duration, seed| {
            FaultPlan::random(modules, duration, severity, seed)
        });
        profile.spec = spec;
        profile
    }

    /// A profile with an arbitrary `(module_count, duration_steps, seed) →
    /// FaultPlan` recipe.
    pub fn parameterised<F>(label: impl Into<String>, recipe: F) -> Self
    where
        F: Fn(usize, usize, u64) -> FaultPlan + Send + Sync + 'static,
    {
        Self {
            label: label.into(),
            spec: None,
            recipe: Arc::new(recipe),
        }
    }

    fn tagged(mut self, spec: String) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The label recorded in every cell key using this profile.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The compact token this profile serialises to, when it was built from
    /// [`FaultProfile::none`], [`FaultProfile::fixed`] or
    /// [`FaultProfile::random`] ([`FaultProfile::parse`] round-trips it).
    /// Profiles over arbitrary recipes have no token and return `None`.
    #[must_use]
    pub fn spec(&self) -> Option<&str> {
        self.spec.as_deref()
    }

    /// Parses a fault-profile token back into the profile that emitted it:
    /// `healthy`, `random:<label>:<severity>` (severity one of `light`,
    /// `moderate`, `severe` or raw `<module>/<switch>/<sensor>` rates) or
    /// `fixed:<label>:<sensor_seed>:<plan spec>` with the plan in
    /// [`FaultPlan::spec`] grammar.  Returns `None` for unknown tokens or
    /// malformed parameters.
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        if token == "healthy" {
            return Some(Self::none());
        }
        if let Some(rest) = token.strip_prefix("random:") {
            let (label, severity) = rest.split_once(':')?;
            if !label_is_spec_safe(label) {
                return None;
            }
            return Some(Self::random(label, parse_severity(severity)?));
        }
        let rest = token.strip_prefix("fixed:")?;
        let (label, rest) = rest.split_once(':')?;
        let (sensor_seed, plan_spec) = rest.split_once(':')?;
        if !label_is_spec_safe(label) {
            return None;
        }
        let sensor_seed: u64 = sensor_seed.parse().ok()?;
        let plan = FaultPlan::parse_spec(plan_spec)
            .ok()?
            .with_sensor_seed(sensor_seed);
        Some(Self::fixed(label, plan))
    }

    /// The plan this profile produces for one cell's coordinates.
    #[must_use]
    pub fn plan(&self, module_count: usize, duration_steps: usize, seed: u64) -> FaultPlan {
        (self.recipe)(module_count, duration_steps, seed)
    }
}

impl fmt::Debug for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultProfile")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// The coordinates of one sweep cell — everything needed to tell results
/// apart in a [`SweepReport`](crate::SweepReport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    index: usize,
    module_count: usize,
    seed: u64,
    drive: String,
    variation: usize,
    fault: String,
    lineup: String,
}

impl CellKey {
    /// Reassembles a key from its raw coordinates — the inverse of reading
    /// the accessors off an existing key.  Wire codecs use this to
    /// reconstruct streamed cell reports; within one process, keys come from
    /// [`ScenarioGridBuilder::build`].
    #[must_use]
    pub fn from_parts(
        index: usize,
        module_count: usize,
        seed: u64,
        drive: impl Into<String>,
        variation: usize,
        fault: impl Into<String>,
        lineup: impl Into<String>,
    ) -> Self {
        Self {
            index,
            module_count,
            seed,
            drive: drive.into(),
            variation,
            fault: fault.into(),
            lineup: lineup.into(),
        }
    }

    /// Position of the cell in grid order (the order reports are listed in).
    #[must_use]
    pub const fn index(&self) -> usize {
        self.index
    }

    /// Number of modules in the cell's array.
    #[must_use]
    pub const fn module_count(&self) -> usize {
        self.module_count
    }

    /// The drive-cycle RNG seed.
    #[must_use]
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Label of the cell's [`DriveProfile`].
    #[must_use]
    pub fn drive(&self) -> &str {
        &self.drive
    }

    /// Index of the cell's variation model within the grid's variation axis.
    #[must_use]
    pub const fn variation(&self) -> usize {
        self.variation
    }

    /// Label of the cell's [`FaultProfile`].
    #[must_use]
    pub fn fault(&self) -> &str {
        &self.fault
    }

    /// Name of the cell's [`SchemeLineup`].
    #[must_use]
    pub fn lineup(&self) -> &str {
        &self.lineup
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {}mod seed{} {} {} {}",
            self.index, self.module_count, self.seed, self.drive, self.fault, self.lineup
        )
    }
}

/// One unit of sweep work: a scenario sample paired with a scheme lineup.
#[derive(Debug, Clone)]
pub struct SweepCell {
    key: CellKey,
    sample_index: usize,
    lineup_index: usize,
}

impl SweepCell {
    /// The cell's coordinates.
    #[must_use]
    pub const fn key(&self) -> &CellKey {
        &self.key
    }

    /// Index of the cell's scenario sample within
    /// [`ScenarioGrid::samples`].
    #[must_use]
    pub const fn sample_index(&self) -> usize {
        self.sample_index
    }

    /// Index of the cell's lineup within [`ScenarioGrid::lineups`].
    #[must_use]
    pub const fn lineup_index(&self) -> usize {
        self.lineup_index
    }
}

/// The resolved cross-product of sweep axes: one [`Scenario`] per distinct
/// parameter sample, and one [`SweepCell`] per sample × lineup.
///
/// Cells that differ only in their lineup reference the *same* scenario
/// sample, so its thermal trace is solved once however many lineups (and
/// workers) replay it.  On top of that, the grid attaches one shared
/// [`TraceCache`] to every sample (unless built with
/// [`ScenarioGridBuilder::isolated_traces`]), so *samples* whose thermal
/// inputs are bit-identical — typically the fault-profile variants of one
/// (module count, seed, drive) coordinate — also share a single radiator
/// solve.  The grid is `Sync`: workers share it by reference.
#[derive(Debug)]
pub struct ScenarioGrid {
    samples: Vec<Scenario>,
    lineups: Vec<SchemeLineup>,
    cells: Vec<SweepCell>,
    trace_cache: Option<TraceCache>,
    expected_thermal_solves: usize,
}

impl ScenarioGrid {
    /// Starts a builder with the paper's defaults on every axis (100
    /// modules, seed 0, the 800-second drive, no variation, the Table I
    /// lineup).
    #[must_use]
    pub fn builder() -> ScenarioGridBuilder {
        ScenarioGridBuilder::new()
    }

    /// Number of cells (scenario samples × lineups).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the grid has no cells (never produced by the builder,
    /// which rejects empty axes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells in grid order.
    #[must_use]
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// The distinct scenario samples, in axis order.
    #[must_use]
    pub fn samples(&self) -> &[Scenario] {
        &self.samples
    }

    /// The scheme lineups, in insertion order.
    #[must_use]
    pub fn lineups(&self) -> &[SchemeLineup] {
        &self.lineups
    }

    /// The scenario a cell replays.
    #[must_use]
    pub fn scenario(&self, cell: &SweepCell) -> &Scenario {
        &self.samples[cell.sample_index]
    }

    /// The lineup a cell fields.
    #[must_use]
    pub fn lineup(&self, cell: &SweepCell) -> &SchemeLineup {
        &self.lineups[cell.lineup_index]
    }

    /// Radiator solves performed through this grid's scenarios so far —
    /// after a sweep, exactly [`ScenarioGrid::expected_thermal_solves`] when
    /// the trace caches held: one solve per drive-cycle second of each
    /// *unique thermal key*, however many samples, cells and workers shared
    /// it.  With an externally pre-warmed cache
    /// ([`ScenarioGridBuilder::trace_cache`]) the count can be lower still:
    /// keys already solved by an earlier grid cost this grid nothing.
    #[must_use]
    pub fn thermal_solve_count(&self) -> usize {
        self.samples.iter().map(Scenario::thermal_solve_count).sum()
    }

    /// The solve budget a sweep costs *from a cold cache*: one radiator
    /// solve per drive-cycle second of each *unique thermal key* on the
    /// grid (samples that differ only by fault profile — or any other axis
    /// that never reaches the radiator — share a key).  With
    /// [`ScenarioGridBuilder::isolated_traces`] every sample is its own
    /// key, restoring the historical one-solve-per-sample count.  A grid
    /// sharing an external, already-warm cache performs *at most* this many
    /// solves — [`ScenarioGrid::thermal_solve_count`] then reports only the
    /// keys this grid solved first.
    #[must_use]
    pub const fn expected_thermal_solves(&self) -> usize {
        self.expected_thermal_solves
    }

    /// The cross-sample trace cache attached to this grid's scenarios, if
    /// sharing is enabled (the default).
    #[must_use]
    pub const fn trace_cache(&self) -> Option<&TraceCache> {
        self.trace_cache.as_ref()
    }

    /// Indices into [`ScenarioGrid::samples`] of the first sample carrying
    /// each distinct thermal key, in the order the cells first reference
    /// them — the set of radiator solves a cold sweep of this grid runs.
    /// With trace sharing disabled ([`ScenarioGridBuilder::isolated_traces`])
    /// every sample is its own key, so every sample index is returned.
    #[must_use]
    pub fn unique_sample_indices(&self) -> Vec<usize> {
        let mut seen = vec![false; self.samples.len()];
        let mut referenced = Vec::new();
        for cell in &self.cells {
            if !seen[cell.sample_index] {
                seen[cell.sample_index] = true;
                referenced.push(cell.sample_index);
            }
        }
        if self.trace_cache.is_none() {
            // Isolated traces: nothing dedupes, each sample solves its own.
            return referenced;
        }
        let mut unique: Vec<ThermalKey> = Vec::new();
        let mut indices = Vec::new();
        for index in referenced {
            let key = ThermalKey::of(&self.samples[index]);
            if !unique.contains(&key) {
                unique.push(key);
                indices.push(index);
            }
        }
        indices
    }
}

/// Builder for [`ScenarioGrid`] values; every axis defaults to the paper's
/// single value.
#[derive(Debug, Clone)]
pub struct ScenarioGridBuilder {
    module_counts: Vec<usize>,
    seeds: Vec<u64>,
    drives: Vec<DriveProfile>,
    variations: Vec<VariationModel>,
    faults: Vec<FaultProfile>,
    lineups: Vec<SchemeLineup>,
    trace_cache: Option<TraceCache>,
    share_traces: bool,
}

impl ScenarioGridBuilder {
    /// Creates a builder with the paper's defaults on every axis.
    #[must_use]
    pub fn new() -> Self {
        Self {
            module_counts: vec![100],
            seeds: vec![0],
            drives: vec![DriveProfile::paper_800s()],
            variations: vec![VariationModel::none()],
            faults: vec![FaultProfile::none()],
            lineups: vec![SchemeLineup::paper()],
            trace_cache: None,
            share_traces: true,
        }
    }

    /// Replaces the module-count axis.
    #[must_use]
    pub fn module_counts(mut self, counts: impl IntoIterator<Item = usize>) -> Self {
        self.module_counts = counts.into_iter().collect();
        self
    }

    /// Replaces the drive-cycle seed axis.
    #[must_use]
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Replaces the drive-profile axis.
    #[must_use]
    pub fn drives(mut self, drives: impl IntoIterator<Item = DriveProfile>) -> Self {
        self.drives = drives.into_iter().collect();
        self
    }

    /// Shorthand for a single unnamed drive profile of the given duration.
    #[must_use]
    pub fn duration_seconds(self, duration_seconds: usize) -> Self {
        self.drives([DriveProfile::seconds(duration_seconds)])
    }

    /// Replaces the module-variation axis.
    #[must_use]
    pub fn variations(mut self, variations: impl IntoIterator<Item = VariationModel>) -> Self {
        self.variations = variations.into_iter().collect();
        self
    }

    /// Replaces the fault axis: each profile produces one degradation
    /// variant of every scenario sample (the default axis is the single
    /// healthy profile).
    #[must_use]
    pub fn faults(mut self, faults: impl IntoIterator<Item = FaultProfile>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Replaces the scheme-lineup axis.
    #[must_use]
    pub fn lineups(mut self, lineups: impl IntoIterator<Item = SchemeLineup>) -> Self {
        self.lineups = lineups.into_iter().collect();
        self
    }

    /// Shares thermal traces through an *external* [`TraceCache`] instead
    /// of the fresh per-grid cache the builder creates by default — the hook
    /// for threading one cache through many grids (repeated sweeps over
    /// overlapping parameter spaces pay each unique radiator solve once,
    /// ever).
    #[must_use]
    pub fn trace_cache(mut self, cache: TraceCache) -> Self {
        self.trace_cache = Some(cache);
        self.share_traces = true;
        self
    }

    /// Disables cross-sample trace sharing: every sample solves its own
    /// thermal trace, as earlier revisions did.  Useful for benchmarking the
    /// cache itself; the per-sample (cells × lineups) sharing is unaffected.
    #[must_use]
    pub fn isolated_traces(mut self) -> Self {
        self.trace_cache = None;
        self.share_traces = false;
        self
    }

    /// Resolves the cross-product: builds one scenario per distinct
    /// (module count, seed, drive, variation) sample and one cell per
    /// sample × lineup.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] when any axis is empty, when a
    /// lineup fields no scheme or two schemes with the same name for some
    /// module count, and propagates scenario-construction errors.
    pub fn build(self) -> Result<ScenarioGrid, SimError> {
        for (axis, len) in [
            ("module_counts", self.module_counts.len()),
            ("seeds", self.seeds.len()),
            ("drives", self.drives.len()),
            ("variations", self.variations.len()),
            ("faults", self.faults.len()),
            ("lineups", self.lineups.len()),
        ] {
            if len == 0 {
                return Err(SimError::InvalidScenario {
                    reason: format!("scenario grid axis {axis:?} is empty"),
                });
            }
        }
        // Lineup validation up front: failing at build time beats failing
        // halfway through a long parallel run.
        for lineup in &self.lineups {
            for &module_count in &self.module_counts {
                let specs = lineup.specs(module_count);
                if specs.is_empty() {
                    return Err(SimError::InvalidScenario {
                        reason: format!(
                            "lineup {:?} fields no scheme for {module_count} modules",
                            lineup.name()
                        ),
                    });
                }
                let mut names = HashSet::new();
                for spec in &specs {
                    if !names.insert(spec.name().to_owned()) {
                        return Err(SimError::InvalidScenario {
                            reason: format!(
                                "lineup {:?} fields scheme {:?} twice for {module_count} \
                                 modules; per-name report lookup would be ambiguous",
                                lineup.name(),
                                spec.name()
                            ),
                        });
                    }
                }
            }
        }

        let trace_cache = self
            .share_traces
            .then(|| self.trace_cache.unwrap_or_default());
        let mut samples = Vec::new();
        let mut sample_coords = Vec::new();
        for &module_count in &self.module_counts {
            for &seed in &self.seeds {
                for drive in &self.drives {
                    for (variation_index, &variation) in self.variations.iter().enumerate() {
                        for fault in &self.faults {
                            let mut builder = Scenario::builder()
                                .module_count(module_count)
                                .duration_seconds(drive.duration_seconds())
                                .seed(seed)
                                .module_variation(variation)
                                .fault_plan(fault.plan(
                                    module_count,
                                    drive.duration_seconds(),
                                    seed,
                                ));
                            if let Some(cache) = &trace_cache {
                                builder = builder.trace_cache(cache.clone());
                            }
                            samples.push(builder.build()?);
                            sample_coords.push((
                                module_count,
                                seed,
                                drive.label().to_owned(),
                                variation_index,
                                fault.label().to_owned(),
                            ));
                        }
                    }
                }
            }
        }

        // The solve budget a sweep should cost: with sharing on, one solve
        // per drive-cycle second of each *unique thermal key*; isolated,
        // one per sample.  Computed here so tests and benches can assert the
        // reduction without re-deriving the keys.
        let expected_thermal_solves = if trace_cache.is_some() {
            let mut unique: Vec<ThermalKey> = Vec::new();
            let mut expected = 0;
            for sample in &samples {
                let key = ThermalKey::of(sample);
                if !unique.contains(&key) {
                    expected += sample.drive_cycle().len();
                    unique.push(key);
                }
            }
            expected
        } else {
            samples.iter().map(|s| s.drive_cycle().len()).sum()
        };

        let mut cells = Vec::with_capacity(samples.len() * self.lineups.len());
        for (sample_index, (module_count, seed, drive, variation, fault)) in
            sample_coords.into_iter().enumerate()
        {
            for (lineup_index, lineup) in self.lineups.iter().enumerate() {
                cells.push(SweepCell {
                    key: CellKey {
                        index: cells.len(),
                        module_count,
                        seed,
                        drive: drive.clone(),
                        variation,
                        fault: fault.clone(),
                        lineup: lineup.name().to_owned(),
                    },
                    sample_index,
                    lineup_index,
                });
            }
        }

        Ok(ScenarioGrid {
            samples,
            lineups: self.lineups,
            cells,
            trace_cache,
            expected_thermal_solves,
        })
    }
}

impl Default for ScenarioGridBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_the_cross_product_of_its_axes() {
        let grid = ScenarioGrid::builder()
            .module_counts([6, 9, 12])
            .seeds([1, 2])
            .duration_seconds(10)
            .lineups([
                SchemeLineup::paper(),
                SchemeLineup::fixed("solo", vec![SchemeSpec::inor()]),
            ])
            .build()
            .unwrap();
        assert_eq!(grid.samples().len(), 6); // 3 × 2 × 1 drive × 1 variation
        assert_eq!(grid.len(), 12); // × 2 lineups
        assert!(!grid.is_empty());
        assert_eq!(grid.expected_thermal_solves(), 6 * 10);
        assert_eq!(grid.thermal_solve_count(), 0); // nothing ran yet

        // Cell indices are dense and in grid order; lineups alternate
        // fastest.
        for (i, cell) in grid.cells().iter().enumerate() {
            assert_eq!(cell.key().index(), i);
        }
        assert_eq!(grid.cells()[0].key().lineup(), "paper");
        assert_eq!(grid.cells()[1].key().lineup(), "solo");
        assert_eq!(
            grid.cells()[0].sample_index(),
            grid.cells()[1].sample_index()
        );
        assert_eq!(grid.cells()[0].key().module_count(), 6);
        assert_eq!(grid.cells()[11].key().module_count(), 12);
    }

    #[test]
    fn the_legacy_fixed_paper_token_aliases_the_paper_lineup() {
        let alias = SchemeLineup::parse("paper-fixed:0.005").unwrap();
        assert_eq!(alias.name(), "paper-fixed");
        assert_eq!(alias.spec(), Some("paper-fixed:0.005"));
        let tokens = |lineup: &SchemeLineup| {
            lineup
                .specs(16)
                .iter()
                .map(|s| s.spec().map(str::to_owned))
                .collect::<Vec<_>>()
        };
        assert_eq!(tokens(&alias), tokens(&SchemeLineup::paper()));
        for bad in [
            "paper-fixed:",
            "paper-fixed:-1",
            "paper-fixed:inf",
            "paper-fixed:NaN",
        ] {
            assert!(
                SchemeLineup::parse(bad).is_none(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        for builder in [
            ScenarioGrid::builder().module_counts([]),
            ScenarioGrid::builder().seeds([]),
            ScenarioGrid::builder().drives([]),
            ScenarioGrid::builder().variations([]),
            ScenarioGrid::builder().faults([]),
            ScenarioGrid::builder().lineups([]),
        ] {
            assert!(matches!(
                builder.build(),
                Err(SimError::InvalidScenario { .. })
            ));
        }
    }

    #[test]
    fn fault_axis_multiplies_samples_and_labels_cells() {
        use crate::fault::FaultSeverity;

        let grid = ScenarioGrid::builder()
            .module_counts([8])
            .seeds([1, 2])
            .duration_seconds(12)
            .faults([
                FaultProfile::none(),
                FaultProfile::random("severe", FaultSeverity::severe()),
            ])
            .lineups([SchemeLineup::fixed("solo", vec![SchemeSpec::inor()])])
            .build()
            .unwrap();
        // 1 module count × 2 seeds × 1 drive × 1 variation × 2 faults.
        assert_eq!(grid.samples().len(), 4);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid.cells()[0].key().fault(), "healthy");
        assert_eq!(grid.cells()[1].key().fault(), "severe");
        // The healthy sample carries no plan; the severe one does.
        assert!(grid.scenario(&grid.cells()[0]).fault_plan().is_empty());
        assert!(!grid.scenario(&grid.cells()[1]).fault_plan().is_empty());
        // Same severity, different seeds → different plans.
        assert_ne!(
            grid.scenario(&grid.cells()[1]).fault_plan(),
            grid.scenario(&grid.cells()[3]).fault_plan()
        );
        let shown = grid.cells()[1].key().to_string();
        assert!(shown.contains("severe"), "{shown}");
    }

    #[test]
    fn fixed_fault_profiles_replay_one_plan_everywhere() {
        use crate::fault::{FaultAction, FaultEvent, FaultPlan};
        use teg_array::ModuleFault;

        let plan = FaultPlan::new(vec![FaultEvent::new(
            2,
            FaultAction::Module {
                module: 0,
                fault: ModuleFault::OpenCircuit,
            },
        )]);
        let profile = FaultProfile::fixed("m0-open", plan.clone());
        assert_eq!(profile.label(), "m0-open");
        assert_eq!(profile.plan(8, 10, 1), plan);
        assert_eq!(profile.plan(100, 800, 9), plan);
        let grid = ScenarioGrid::builder()
            .module_counts([4, 6])
            .duration_seconds(8)
            .faults([profile])
            .lineups([SchemeLineup::fixed("solo", vec![SchemeSpec::inor()])])
            .build()
            .unwrap();
        for cell in grid.cells() {
            assert_eq!(grid.scenario(cell).fault_plan(), &plan);
        }
        // Debug shows the label only.
        let text = format!("{:?}", FaultProfile::none());
        assert!(text.contains("healthy"), "{text}");
    }

    #[test]
    fn duplicate_lineup_schemes_are_rejected_at_build_time() {
        let err = ScenarioGrid::builder()
            .module_counts([8])
            .duration_seconds(5)
            .lineups([SchemeLineup::fixed(
                "twice",
                vec![SchemeSpec::inor(), SchemeSpec::inor()],
            )])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("INOR"), "{err}");
    }

    #[test]
    fn empty_lineups_are_rejected_at_build_time() {
        let err = ScenarioGrid::builder()
            .lineups([SchemeLineup::fixed("none", vec![])])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no scheme"), "{err}");
    }

    #[test]
    fn invalid_scenario_parameters_propagate() {
        assert!(ScenarioGrid::builder().module_counts([0]).build().is_err());
        assert!(ScenarioGrid::builder().duration_seconds(0).build().is_err());
    }

    #[test]
    fn drive_profiles_carry_labels() {
        assert_eq!(DriveProfile::seconds(120).label(), "120s");
        assert_eq!(DriveProfile::paper_800s().duration_seconds(), 800);
        let named = DriveProfile::named("city", 300);
        assert_eq!(named.label(), "city");
        assert_eq!(named.duration_seconds(), 300);
    }

    #[test]
    fn cell_keys_render_their_coordinates() {
        let grid = ScenarioGrid::builder()
            .module_counts([4])
            .seeds([9])
            .duration_seconds(5)
            .build()
            .unwrap();
        let text = grid.cells()[0].key().to_string();
        assert!(text.contains("4mod"), "{text}");
        assert!(text.contains("seed9"), "{text}");
        assert!(text.contains("paper"), "{text}");
    }

    #[test]
    fn fault_variants_share_a_thermal_key_in_the_expected_solves() {
        use crate::fault::FaultSeverity;

        let shared = ScenarioGrid::builder()
            .module_counts([6])
            .seeds([1, 2])
            .duration_seconds(10)
            .faults([
                FaultProfile::none(),
                FaultProfile::random("light", FaultSeverity::light()),
                FaultProfile::random("severe", FaultSeverity::severe()),
            ])
            .lineups([SchemeLineup::fixed("solo", vec![SchemeSpec::inor()])])
            .build()
            .unwrap();
        // 6 samples (2 seeds × 3 fault profiles) but only 2 unique thermal
        // keys: the fault axis never reaches the radiator.
        assert_eq!(shared.samples().len(), 6);
        assert_eq!(shared.expected_thermal_solves(), 2 * 10);
        assert!(shared.trace_cache().is_some());

        let isolated = ScenarioGrid::builder()
            .module_counts([6])
            .seeds([1, 2])
            .duration_seconds(10)
            .faults([
                FaultProfile::none(),
                FaultProfile::random("light", FaultSeverity::light()),
                FaultProfile::random("severe", FaultSeverity::severe()),
            ])
            .lineups([SchemeLineup::fixed("solo", vec![SchemeSpec::inor()])])
            .isolated_traces()
            .build()
            .unwrap();
        assert_eq!(isolated.expected_thermal_solves(), 6 * 10);
        assert!(isolated.trace_cache().is_none());
    }

    #[test]
    fn an_external_cache_spans_grids() {
        use crate::trace_cache::TraceCache;

        let cache = TraceCache::new();
        let build = || {
            ScenarioGrid::builder()
                .module_counts([5])
                .seeds([1])
                .duration_seconds(8)
                .lineups([SchemeLineup::fixed("solo", vec![SchemeSpec::inor()])])
                .trace_cache(cache.clone())
                .build()
                .unwrap()
        };
        let first = build();
        let second = build();
        first.samples()[0].thermal_trace().unwrap();
        second.samples()[0].thermal_trace().unwrap();
        // The second grid's identical sample reused the first grid's solve.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(first.thermal_solve_count(), 8);
        assert_eq!(second.thermal_solve_count(), 0);
    }

    #[test]
    fn grid_is_shareable_across_threads() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<ScenarioGrid>();
        assert_sync::<SchemeLineup>();
        assert_sync::<Scenario>();
    }
}
