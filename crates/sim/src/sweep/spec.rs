//! The description of a sweep grid: its builder and its one-line wire form.
//!
//! A [`GridSpec`] holds the six axes of a [`ScenarioGrid`] — module counts,
//! seeds, drive profiles, variation models, fault profiles and scheme
//! lineups — each defaulting to the paper's single value.  Code sets the
//! axes with chained setters and resolves the cross-product with
//! [`GridSpec::to_grid`] (or [`GridSpec::to_grid_with_cache`] to choose how
//! samples share thermal traces).  The same value serialises to a single
//! text line, mirroring [`FaultPlan::spec`](crate::FaultPlan::spec) at the
//! grid level, so whole sweep requests can travel over a wire, live in a
//! checkpoint header, or caption a report:
//!
//! ```text
//! modules=8,12|seeds=1,2|drive=porter-ii-800s:800|var=none|fault=healthy|lineup=paper
//! ```
//!
//! Axes are joined by `|`, values within an axis by `,`, and parameters
//! within a value token by `:` (with `+` separating the schemes of a fixed
//! lineup).  Fault-plan specs only ever contain `;`, `:` and `.`, so a full
//! `fixed:` fault profile nests inside a value without escaping.  Missing
//! axes parse to the paper's defaults, matching [`GridSpec::new`]; emission
//! always writes all six in canonical order, so `parse(s).spec() == s` for
//! any canonically formatted `s`.
//!
//! Only *spec-able* axis values round-trip: profiles and lineups built from
//! the named presets (or from preset-token schemes) carry a token; ones
//! wrapping arbitrary closures do not, and [`GridSpec::spec`] reports which
//! axis blocks serialisation.  Such a spec still builds a grid.

use std::fmt;

use teg_device::VariationModel;

use crate::error::SimError;
use crate::sweep::grid::{DriveProfile, FaultProfile, ScenarioGrid, SchemeLineup};
use crate::trace_cache::TraceCache;

/// The description of a [`ScenarioGrid`]: every axis held as values that
/// build the grid and can be written to (and re-read from) a compact text
/// line.  Every axis defaults to the paper's single value.
///
/// # Examples
///
/// ```
/// use teg_sim::GridSpec;
///
/// # fn main() -> Result<(), teg_sim::SimError> {
/// let spec = GridSpec::parse("modules=8,12|seeds=1,2|drive=city:15")?;
/// let grid = spec.to_grid()?;
/// assert_eq!(grid.len(), 4); // 2 module counts × 2 seeds × paper lineup
/// // Emission is canonical: all six axes, fixed order.
/// let line = spec.spec()?;
/// assert_eq!(
///     line,
///     "modules=8,12|seeds=1,2|drive=city:15|var=none|fault=healthy|lineup=paper"
/// );
/// assert_eq!(GridSpec::parse(&line)?.spec()?, line);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GridSpec {
    pub(super) module_counts: Vec<usize>,
    pub(super) seeds: Vec<u64>,
    pub(super) drives: Vec<DriveProfile>,
    pub(super) variations: Vec<VariationModel>,
    pub(super) faults: Vec<FaultProfile>,
    pub(super) lineups: Vec<SchemeLineup>,
}

impl Default for GridSpec {
    fn default() -> Self {
        Self::new()
    }
}

impl GridSpec {
    /// A spec with the paper's defaults on every axis (100 modules, seed 0,
    /// the 800-second drive, no variation, no fault, the Table I lineup).
    #[must_use]
    pub fn new() -> Self {
        Self {
            module_counts: vec![100],
            seeds: vec![0],
            drives: vec![DriveProfile::paper_800s()],
            variations: vec![VariationModel::none()],
            faults: vec![FaultProfile::none()],
            lineups: vec![SchemeLineup::paper()],
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

    /// Shorthand for a single unnamed drive profile of the given duration:
    /// sets the drive axis only.
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

    /// Total cells the grid will have: samples × lineups.  Available before
    /// building, so admission control can budget a request without paying
    /// for scenario construction.  Saturates at `usize::MAX`, so a grid too
    /// large to count reads as over any budget.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        [
            self.module_counts.len(),
            self.seeds.len(),
            self.drives.len(),
            self.variations.len(),
            self.faults.len(),
            self.lineups.len(),
        ]
        .into_iter()
        .fold(1, usize::saturating_mul)
    }

    /// Total simulated steps across all cells: for each (sample, lineup)
    /// pair, the drive's duration times the lineup's scheme count for that
    /// sample's module count.  The per-request work bound a service budgets
    /// against.  Saturates at `usize::MAX` like [`GridSpec::cell_count`].
    #[must_use]
    pub fn total_steps(&self) -> usize {
        let per_coordinate = [self.seeds.len(), self.variations.len(), self.faults.len()]
            .into_iter()
            .fold(1, usize::saturating_mul);
        let mut steps: usize = 0;
        for drive in &self.drives {
            for lineup in &self.lineups {
                for &module_count in &self.module_counts {
                    steps = steps.saturating_add(
                        drive
                            .duration_seconds()
                            .saturating_mul(lineup.specs(module_count).len())
                            .saturating_mul(per_coordinate),
                    );
                }
            }
        }
        steps
    }

    /// Serialises the spec to its canonical one-line form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] when an axis holds a value with
    /// no compact token — a [`FaultProfile`]/[`SchemeLineup`] wrapping an
    /// arbitrary closure, or a label using reserved characters.
    pub fn spec(&self) -> Result<String, SimError> {
        let blocked = |axis: &str, label: &str| SimError::InvalidScenario {
            reason: format!("grid axis {axis:?} holds {label:?}, which has no compact spec token"),
        };
        let mut drives = Vec::with_capacity(self.drives.len());
        for drive in &self.drives {
            drives.push(
                drive
                    .spec()
                    .ok_or_else(|| blocked("drive", drive.label()))?,
            );
        }
        let variations: Vec<String> = self.variations.iter().map(variation_token).collect();
        let mut faults = Vec::with_capacity(self.faults.len());
        for fault in &self.faults {
            faults.push(
                fault
                    .spec()
                    .map(str::to_owned)
                    .ok_or_else(|| blocked("fault", fault.label()))?,
            );
        }
        let mut lineups = Vec::with_capacity(self.lineups.len());
        for lineup in &self.lineups {
            lineups.push(
                lineup
                    .spec()
                    .map(str::to_owned)
                    .ok_or_else(|| blocked("lineup", lineup.name()))?,
            );
        }
        Ok(format!(
            "modules={}|seeds={}|drive={}|var={}|fault={}|lineup={}",
            join(&self.module_counts),
            join(&self.seeds),
            drives.join(","),
            variations.join(","),
            faults.join(","),
            lineups.join(",")
        ))
    }

    /// Parses a one-line grid spec.  Axes may appear in any order; missing
    /// axes take the paper's defaults; unknown or repeated axes are errors.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] naming the offending axis or
    /// value token.
    pub fn parse(text: &str) -> Result<Self, SimError> {
        let bad = |why: String| SimError::InvalidScenario { reason: why };
        let mut spec = Self::new();
        let mut seen: Vec<&str> = Vec::new();
        for chunk in text.split('|') {
            let chunk = chunk.trim();
            if chunk.is_empty() {
                continue;
            }
            let (axis, values) = chunk
                .split_once('=')
                .ok_or_else(|| bad(format!("grid spec chunk {chunk:?}: expected `axis=values`")))?;
            if seen.contains(&axis) {
                return Err(bad(format!("grid spec repeats axis {axis:?}")));
            }
            let tokens: Vec<&str> = values.split(',').collect();
            match axis {
                "modules" => {
                    spec.module_counts = parse_axis(axis, &tokens, |t| t.parse().ok())?;
                }
                "seeds" => {
                    spec.seeds = parse_axis(axis, &tokens, |t| t.parse().ok())?;
                }
                "drive" => {
                    spec.drives = parse_axis(axis, &tokens, DriveProfile::parse)?;
                }
                "var" => {
                    spec.variations = parse_axis(axis, &tokens, parse_variation)?;
                }
                "fault" => {
                    spec.faults = parse_axis(axis, &tokens, FaultProfile::parse)?;
                }
                "lineup" => {
                    spec.lineups = parse_axis(axis, &tokens, SchemeLineup::parse)?;
                }
                other => {
                    return Err(bad(format!("grid spec names unknown axis {other:?}")));
                }
            }
            seen.push(axis);
        }
        Ok(spec)
    }

    /// Resolves the cross-product into a [`ScenarioGrid`] whose samples
    /// share thermal traces through one fresh [`TraceCache`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidScenario`] when any axis is empty, when a
    /// lineup fields no scheme or two schemes with the same name for some
    /// module count, and propagates scenario-construction errors.
    pub fn to_grid(&self) -> Result<ScenarioGrid, SimError> {
        ScenarioGrid::from_spec(self, Some(TraceCache::new()))
    }

    /// Resolves the cross-product with the given trace sharing.
    /// `Some(cache)` shares traces through an external cache, so repeated
    /// requests over overlapping parameter spaces pay each unique radiator
    /// solve once.  `None` isolates the samples: each solves its own trace,
    /// which is how benchmarks measure the cache itself.
    ///
    /// # Errors
    ///
    /// As [`GridSpec::to_grid`].
    pub fn to_grid_with_cache(&self, cache: Option<TraceCache>) -> Result<ScenarioGrid, SimError> {
        ScenarioGrid::from_spec(self, cache)
    }
}

impl fmt::Display for GridSpec {
    /// Formats the canonical spec line; axes without compact tokens render
    /// as `<unserialisable grid>` (use [`GridSpec::spec`] to get the error).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.spec() {
            Ok(line) => f.write_str(&line),
            Err(_) => f.write_str("<unserialisable grid>"),
        }
    }
}

fn join<T: fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(T::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_axis<T>(
    axis: &str,
    tokens: &[&str],
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, SimError> {
    tokens
        .iter()
        .map(|token| {
            parse(token).ok_or_else(|| SimError::InvalidScenario {
                reason: format!("grid axis {axis:?}: cannot parse value {token:?}"),
            })
        })
        .collect()
}

/// The compact token of a [`VariationModel`]: `none` for the exact-nominal
/// model, `tol:<seebeck>:<resistance>` otherwise (`f64` `Display`
/// round-trips exactly).
fn variation_token(variation: &VariationModel) -> String {
    if variation.seebeck_tolerance() == 0.0 && variation.resistance_tolerance() == 0.0 {
        "none".to_owned()
    } else {
        format!(
            "tol:{}:{}",
            variation.seebeck_tolerance(),
            variation.resistance_tolerance()
        )
    }
}

fn parse_variation(token: &str) -> Option<VariationModel> {
    if token == "none" {
        return Some(VariationModel::none());
    }
    let rest = token.strip_prefix("tol:")?;
    let (seebeck, resistance) = rest.split_once(':')?;
    VariationModel::new(seebeck.parse().ok()?, resistance.parse().ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSeverity};
    use proptest::prelude::*;
    use teg_reconfig::SchemeSpec;

    /// Grammar fragments a hostile or mistyped spec line is made of: the
    /// separators, every axis name, the value-token prefixes and numbers at
    /// and past the edges of what `usize`, `u64` and `f64` hold.
    const FRAGMENTS: [&str; 47] = [
        "|",
        ",",
        ":",
        "=",
        "+",
        ";",
        ".",
        "/",
        " ",
        "modules",
        "seeds",
        "drive",
        "var",
        "fault",
        "lineup",
        "paper",
        "paper-fixed:",
        "fixed:",
        "random:",
        "tol:",
        "healthy",
        "none",
        "light",
        "severe",
        "city",
        "inor",
        "dnor",
        "ehtr",
        "baseline",
        "baseline:",
        "dnor-det:",
        "m1.open",
        "s0.stuck_open",
        "n2.noise",
        "0",
        "1",
        "8",
        "-0",
        "-1",
        "0.5",
        "1e999",
        "NaN",
        "inf",
        "18446744073709551615",
        "18446744073709551616",
        "4611686018427387904",
        "é",
    ];
    const AXES: [&str; 6] = ["modules", "seeds", "drive", "var", "fault", "lineup"];

    fn assert_total(line: &str) {
        if let Ok(spec) = GridSpec::parse(line) {
            let _ = spec.cell_count();
            let _ = spec.total_steps();
            let _ = spec.spec();
        }
    }

    #[test]
    fn default_spec_is_the_paper_grid() {
        let spec = GridSpec::new();
        assert_eq!(
            spec.spec().unwrap(),
            "modules=100|seeds=0|drive=porter-ii-800s:800|var=none|fault=healthy|lineup=paper"
        );
        assert_eq!(spec.cell_count(), 1);
        assert_eq!(spec.total_steps(), 800 * 4); // 4 schemes in the paper lineup
        assert_eq!(spec.to_string(), spec.spec().unwrap());
    }

    #[test]
    fn canonical_lines_round_trip() {
        let line = "modules=8,12|seeds=1,2|drive=city:15,highway:30\
                    |var=none,tol:0.05:0.1|fault=healthy,random:worn:moderate\
                    |lineup=paper,fixed:duo:inor+ehtr";
        let spec = GridSpec::parse(line).unwrap();
        let canonical = spec.spec().unwrap();
        assert_eq!(
            GridSpec::parse(&canonical).unwrap().spec().unwrap(),
            canonical
        );
        assert_eq!(spec.cell_count(), 2 * 2 * 2 * 2 * 2 * 2);
        let grid = spec.to_grid().unwrap();
        assert_eq!(grid.len(), 64);
        assert_eq!(grid.cells()[0].key().lineup(), "paper");
        assert_eq!(grid.cells()[1].key().lineup(), "duo");
    }

    #[test]
    fn missing_axes_take_paper_defaults_and_order_is_free() {
        let spec = GridSpec::parse("seeds=3|modules=8").unwrap();
        assert_eq!(
            spec.spec().unwrap(),
            "modules=8|seeds=3|drive=porter-ii-800s:800|var=none|fault=healthy|lineup=paper"
        );
        assert_eq!(
            GridSpec::parse("").unwrap().spec().unwrap(),
            GridSpec::new().spec().unwrap()
        );
        // The `duration_seconds` shorthand sets the drive axis only.
        assert_eq!(
            spec.duration_seconds(12).spec().unwrap(),
            "modules=8|seeds=3|drive=12s:12|var=none|fault=healthy|lineup=paper"
        );
    }

    #[test]
    fn malformed_specs_name_the_offending_axis() {
        for (text, needle) in [
            ("modules=8|modules=9", "repeats"),
            ("modules", "expected `axis=values`"),
            ("turbo=1", "unknown axis"),
            ("modules=", "cannot parse value"),
            ("modules=ten", "cannot parse value"),
            ("seeds=-1", "cannot parse value"),
            ("drive=city", "cannot parse value"),
            ("drive=city:0", "cannot parse value"),
            ("var=tol:2:0", "cannot parse value"),
            ("fault=random:worn:heavy", "cannot parse value"),
            ("lineup=fixed:duo:nonesuch", "cannot parse value"),
            ("lineup=fixed:search:aco+inor", "cannot parse value"),
            ("lineup=fixed:s:aco:7+inor", "cannot parse value"),
            ("kernel=fast", "unknown axis"),
        ] {
            let err = GridSpec::parse(text).unwrap_err();
            let SimError::InvalidScenario { reason } = err else {
                panic!("unexpected error for {text:?}");
            };
            assert!(reason.contains(needle), "{text:?} → {reason}");
        }
    }

    #[test]
    fn profile_tokens_round_trip_through_their_parsers() {
        // Drive profiles.
        let drive = DriveProfile::named("city", 240);
        assert_eq!(drive.spec().as_deref(), Some("city:240"));
        assert_eq!(DriveProfile::parse("city:240"), Some(drive));
        assert_eq!(
            DriveProfile::parse("porter-ii-800s:800"),
            Some(DriveProfile::paper_800s())
        );
        assert!(DriveProfile::parse("city").is_none());
        assert!(DriveProfile::parse("ci,ty:10").is_none());

        // Lineups.
        assert_eq!(SchemeLineup::paper().spec(), Some("paper"));
        let fixed = SchemeLineup::parse("paper-fixed:0.002").unwrap();
        assert_eq!(fixed.spec(), Some("paper-fixed:0.002"));
        assert_eq!(fixed.name(), "paper-fixed");
        let reparsed = SchemeLineup::parse(fixed.spec().unwrap()).unwrap();
        assert_eq!(reparsed.spec(), fixed.spec());
        let duo = SchemeLineup::fixed("duo", vec![SchemeSpec::inor(), SchemeSpec::ehtr()]);
        assert_eq!(duo.spec(), Some("fixed:duo:inor+ehtr"));
        let reparsed = SchemeLineup::parse(duo.spec().unwrap()).unwrap();
        assert_eq!(reparsed.spec(), duo.spec());
        // The bare `baseline` token adapts to the cell's module count.
        let adaptive = SchemeLineup::parse("fixed:solo:baseline").unwrap();
        assert_eq!(adaptive.specs(25)[0].spec(), Some("baseline:25"));
        assert_eq!(adaptive.specs(49)[0].spec(), Some("baseline:49"));
        // Custom lineups have no token.
        assert_eq!(
            SchemeLineup::fixed("custom", vec![SchemeSpec::new(teg_reconfig::Inor::default)])
                .spec(),
            None
        );
        assert!(SchemeLineup::parse("fixed:du o:inor").is_none());

        // Fault profiles.
        assert_eq!(FaultProfile::none().spec(), Some("healthy"));
        let worn = FaultProfile::random("worn", FaultSeverity::moderate());
        assert_eq!(worn.spec(), Some("random:worn:moderate"));
        let custom_sev = FaultProfile::random("odd", FaultSeverity::new(0.1, 0.05, 0.25).unwrap());
        assert_eq!(custom_sev.spec(), Some("random:odd:0.1/0.05/0.25"));
        let reparsed = FaultProfile::parse(custom_sev.spec().unwrap()).unwrap();
        assert_eq!(reparsed.spec(), custom_sev.spec());
        assert_eq!(
            reparsed.plan(20, 100, 7),
            custom_sev.plan(20, 100, 7),
            "reparsed profiles generate identical plans"
        );
        let plan = FaultPlan::parse_spec("3:m1.open;9:m1.repair")
            .unwrap()
            .with_sensor_seed(42);
        let pinned = FaultProfile::fixed("pinned", plan.clone());
        assert_eq!(pinned.spec(), Some("fixed:pinned:42:3:m1.open;9:m1.repair"));
        let reparsed = FaultProfile::parse(pinned.spec().unwrap()).unwrap();
        assert_eq!(reparsed.plan(10, 20, 0), plan);
        assert_eq!(reparsed.spec(), pinned.spec());
        // A fixed profile over an empty plan round-trips too.
        let quiet = FaultProfile::fixed("quiet", FaultPlan::none());
        assert_eq!(quiet.spec(), Some("fixed:quiet:0:"));
        assert_eq!(
            FaultProfile::parse(quiet.spec().unwrap())
                .unwrap()
                .plan(4, 4, 0),
            FaultPlan::none()
        );
        assert_eq!(
            FaultProfile::parameterised("odd", |_, _, _| FaultPlan::none()).spec(),
            None
        );
    }

    proptest! {
        #[test]
        fn parse_is_total_over_grammar_fragments(
            raw in collection::vec(0usize..FRAGMENTS.len(), 0..24),
            axes in collection::vec(0usize..AXES.len(), 1..4),
            values in collection::vec(0usize..FRAGMENTS.len(), 1..12),
        ) {
            // Free concatenations mostly fail early; the `axis=values` shape
            // reaches the value parsers.  Every prefix of both lines is
            // checked as well, which covers truncated frames.
            let free: String = raw.iter().map(|&i| FRAGMENTS[i]).collect();
            let mut shaped = String::new();
            for (n, &axis) in axes.iter().enumerate() {
                if n > 0 {
                    shaped.push('|');
                }
                shaped.push_str(AXES[axis]);
                shaped.push('=');
                let share = values.len().div_ceil(axes.len());
                for &v in values.iter().skip(n * share).take(share) {
                    shaped.push_str(FRAGMENTS[v]);
                }
            }
            for line in [free, shaped] {
                for (end, _) in line.char_indices().chain([(line.len(), ' ')]) {
                    assert_total(&line[..end]);
                }
            }
        }
    }

    #[test]
    fn oversized_grids_saturate_instead_of_wrapping() {
        // Axis lengths whose product is 2^64 + 67: unchecked, a 64-bit
        // build reads 67 cells and 268 steps and passes any budget.
        let spec = GridSpec::new()
            .module_counts(vec![4; 136_949])
            .seeds(0..120_811)
            .drives(vec![DriveProfile::named("city", 1); 10_529])
            .variations(vec![VariationModel::none(); 6_229])
            .faults(vec![FaultProfile::none(); 17]);
        assert_eq!(spec.cell_count(), usize::MAX);
        // 2^62 s × 4 schemes is 2^64 steps, which wraps to 0 unchecked.
        let spec =
            GridSpec::parse("modules=8|drive=city:4611686018427387904|lineup=paper").unwrap();
        assert_eq!(spec.cell_count(), 1);
        assert_eq!(spec.total_steps(), usize::MAX);
    }
}
