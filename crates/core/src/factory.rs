//! Scheme factories: cloneable, thread-safe recipes for building fresh
//! [`Reconfigurer`] instances.
//!
//! A running scheme is stateful (DNOR keeps fitted predictors and an
//! evaluation phase), so one *instance* cannot be shared between concurrent
//! sessions.  A [`SchemeSpec`] captures how to build the scheme instead: it
//! is `Clone + Send + Sync`, carries the scheme's display name, and
//! [`SchemeSpec::build`] mints an independent instance on demand — one per
//! worker thread, one per grid cell, however many a parallel scenario sweep
//! needs.

use std::fmt;
use std::sync::Arc;

use crate::baseline::StaticBaseline;
use crate::dnor::Dnor;
use crate::ehtr::Ehtr;
use crate::inor::Inor;
use crate::traits::Reconfigurer;

/// A factory for one reconfiguration scheme: a name plus a `build()` that
/// returns a fresh, independent [`Reconfigurer`] instance.
///
/// The name is probed from a prototype instance at construction, so it
/// always matches what the built scheme will report (and what simulation
/// reports will be keyed by).
///
/// # Examples
///
/// ```
/// use teg_reconfig::{Reconfigurer, SchemeSpec};
///
/// let spec = SchemeSpec::inor();
/// assert_eq!(spec.name(), "INOR");
/// let a = spec.build();
/// let b = spec.build(); // an independent instance, fresh state
/// assert_eq!(a.name(), b.name());
/// ```
#[derive(Clone)]
pub struct SchemeSpec {
    name: String,
    spec: Option<String>,
    build: Arc<dyn Fn() -> Box<dyn Reconfigurer> + Send + Sync>,
}

impl SchemeSpec {
    /// Wraps a constructor closure as a spec, probing one prototype instance
    /// for the scheme name.
    pub fn new<R, F>(build: F) -> Self
    where
        R: Reconfigurer + 'static,
        F: Fn() -> R + Send + Sync + 'static,
    {
        let name = build().name().to_owned();
        Self {
            name,
            spec: None,
            build: Arc::new(move || Box::new(build())),
        }
    }

    fn tagged(mut self, spec: String) -> Self {
        self.spec = Some(spec);
        self
    }

    /// The scheme's display name, as the built instances will report it.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The compact text token this spec serialises to, when it was built
    /// from one of the named presets ([`SchemeSpec::parse`] round-trips it).
    /// Specs wrapping arbitrary constructors ([`SchemeSpec::new`]) have no
    /// token and return `None`.
    #[must_use]
    pub fn spec(&self) -> Option<&str> {
        self.spec.as_deref()
    }

    /// Parses a preset token back into the spec that emitted it: `inor`,
    /// `ehtr`, `dnor` or `baseline:<modules>`.  Returns `None` for unknown
    /// tokens or malformed parameters, so wire layers can reject bad
    /// requests instead of panicking.
    ///
    /// `dnor-det:<seconds>` is a legacy alias of `dnor` that keeps its own
    /// token: the seconds must be finite and non-negative and are otherwise
    /// ignored, since the session's `RuntimePolicy::Fixed` sets the
    /// charge DNOR's gate weighs.
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "inor" => return Some(Self::inor()),
            "ehtr" => return Some(Self::ehtr()),
            "dnor" => return Some(Self::dnor()),
            _ => {}
        }
        if let Some(value) = token.strip_prefix("dnor-det:") {
            let seconds: f64 = value.parse().ok()?;
            if !(seconds.is_finite() && seconds >= 0.0) {
                return None;
            }
            return Some(Self::dnor().tagged(format!("dnor-det:{seconds}")));
        }
        if let Some(value) = token.strip_prefix("baseline:") {
            let modules: usize = value.parse().ok()?;
            if modules == 0 {
                return None;
            }
            return Some(Self::baseline_square_grid(modules));
        }
        None
    }

    /// Builds a fresh instance with pristine state.
    #[must_use]
    pub fn build(&self) -> Box<dyn Reconfigurer> {
        (self.build)()
    }

    /// INOR with its default tuning.
    #[must_use]
    pub fn inor() -> Self {
        Self::new(Inor::default).tagged("inor".into())
    }

    /// DNOR with its default tuning.
    #[must_use]
    pub fn dnor() -> Self {
        Self::new(Dnor::default).tagged("dnor".into())
    }

    /// The prior-work EHTR re-implementation with its default tuning.
    #[must_use]
    pub fn ehtr() -> Self {
        Self::new(Ehtr::default).tagged("ehtr".into())
    }

    /// The static square-grid baseline for an array of `module_count`
    /// modules.
    #[must_use]
    pub fn baseline_square_grid(module_count: usize) -> Self {
        Self::new(move || StaticBaseline::square_grid(module_count))
            .tagged(format!("baseline:{module_count}"))
    }

    /// The paper's Table I field for an array of `module_count` modules:
    /// DNOR, INOR, EHTR and the square-grid baseline, in that order.
    #[must_use]
    pub fn paper_field(module_count: usize) -> Vec<Self> {
        vec![
            Self::dnor(),
            Self::inor(),
            Self::ehtr(),
            Self::baseline_square_grid(module_count),
        ]
    }
}

impl fmt::Debug for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeSpec")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_send_sync_and_cloneable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<SchemeSpec>();
    }

    #[test]
    fn names_match_the_built_scheme() {
        for (spec, expected) in [
            (SchemeSpec::inor(), "INOR"),
            (SchemeSpec::dnor(), "DNOR"),
            (SchemeSpec::ehtr(), "EHTR"),
            (SchemeSpec::baseline_square_grid(16), "Baseline"),
        ] {
            assert_eq!(spec.name(), expected);
            assert_eq!(spec.build().name(), expected);
        }
    }

    #[test]
    fn built_instances_are_independent() {
        let spec = SchemeSpec::dnor();
        let mut a = spec.build();
        let b = spec.build();
        // Resetting one instance does not disturb the other (they would
        // alias if `build` handed out shared state).
        a.reset();
        assert_eq!(a.name(), b.name());
        assert_eq!(a.period(), b.period());
    }

    #[test]
    fn paper_field_covers_the_four_schemes() {
        let field = SchemeSpec::paper_field(100);
        let names: Vec<&str> = field.iter().map(SchemeSpec::name).collect();
        assert_eq!(names, ["DNOR", "INOR", "EHTR", "Baseline"]);
    }

    #[test]
    fn debug_shows_the_name_only() {
        let text = format!("{:?}", SchemeSpec::ehtr());
        assert!(text.contains("EHTR"), "{text}");
    }

    #[test]
    fn preset_tokens_round_trip_through_parse() {
        for token in ["inor", "ehtr", "dnor", "dnor-det:0.002", "baseline:100"] {
            let spec = SchemeSpec::parse(token).expect(token);
            assert_eq!(spec.spec(), Some(token), "canonical token for {token}");
            let again = SchemeSpec::parse(spec.spec().unwrap()).unwrap();
            assert_eq!(again.name(), spec.name());
            assert_eq!(again.spec(), spec.spec());
        }
        assert_eq!(SchemeSpec::inor().spec(), Some("inor"));
        assert_eq!(
            SchemeSpec::baseline_square_grid(36).spec(),
            Some("baseline:36")
        );
    }

    #[test]
    fn dnor_det_is_a_tag_preserving_alias_of_dnor() {
        let alias = SchemeSpec::parse("dnor-det:0.005").unwrap();
        assert_eq!(alias.spec(), Some("dnor-det:0.005"));
        assert_eq!(alias.name(), "DNOR");
        assert_eq!(
            alias.build().lookback(),
            SchemeSpec::dnor().build().lookback()
        );
        // The tag spells the seconds in their canonical `f64` form.
        assert_eq!(
            SchemeSpec::parse("dnor-det:2e-3").unwrap().spec(),
            Some("dnor-det:0.002")
        );
    }

    #[test]
    fn custom_constructors_have_no_token_and_bad_tokens_fail() {
        assert_eq!(SchemeSpec::new(Inor::default).spec(), None);
        for bad in [
            "",
            "nonesuch",
            "dnor-det:",
            "dnor-det:-1",
            "dnor-det:inf",
            "dnor-det:NaN",
            "aco",
            "aco:42",
            "baseline:",
            "baseline:0",
            "baseline:ten",
        ] {
            assert!(SchemeSpec::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }
}
