//! Array configurations: partitions of the module chain into contiguous
//! series-connected groups of parallel modules.

use std::cmp::Ordering;
use std::fmt;

use crate::error::ArrayError;
use crate::switches::{PairLink, SwitchBank};

/// A contiguous run of modules forming one parallel group.
///
/// # Examples
///
/// ```
/// use teg_array::Group;
///
/// let g = Group::new(3, 7);
/// assert_eq!(g.len(), 4);
/// assert!(g.contains(5));
/// assert!(!g.contains(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Group {
    start: usize,
    end: usize,
}

impl Group {
    /// Creates a group covering module indices `start..end` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start < end, "a group must contain at least one module");
        Self { start, end }
    }

    /// Index of the first module in the group (`g_j` in the paper).
    #[must_use]
    pub const fn start(&self) -> usize {
        self.start
    }

    /// One past the index of the last module in the group.
    #[must_use]
    pub const fn end(&self) -> usize {
        self.end
    }

    /// Number of modules in the group.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.end - self.start
    }

    /// Groups are never empty; provided for API completeness.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if the group contains the module index.
    #[must_use]
    pub const fn contains(&self, index: usize) -> bool {
        index >= self.start && index < self.end
    }

    /// Iterator over the module indices in the group.
    pub fn indices(&self) -> impl Iterator<Item = usize> {
        self.start..self.end
    }
}

/// A partition of the `N`-module chain into `n` contiguous groups:
/// the paper's `C(g_1, g_2, …, g_n)`.
///
/// Internally the configuration stores the 0-based start index of each group;
/// the first entry is always `0`.  Modules inside a group are connected in
/// parallel (both parallel switches closed between them); consecutive groups
/// are connected in series (the series switch closed between the last module
/// of one group and the first of the next).
///
/// # Examples
///
/// ```
/// use teg_array::Configuration;
///
/// # fn main() -> Result<(), teg_array::ArrayError> {
/// // A 10-module chain split into groups of sizes 3, 3 and 4.
/// let config = Configuration::new(vec![0, 3, 6], 10)?;
/// assert_eq!(config.group_count(), 3);
/// assert_eq!(config.group(2).unwrap().len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    group_starts: Vec<usize>,
    module_count: usize,
}

impl Configuration {
    /// Creates a configuration from the 0-based start index of every group.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::EmptyArray`] if `module_count` is zero and
    /// [`ArrayError::InvalidConfiguration`] if the starts are empty, do not
    /// begin at zero, are not strictly increasing, or reference modules
    /// outside the chain.
    pub fn new(group_starts: Vec<usize>, module_count: usize) -> Result<Self, ArrayError> {
        if module_count == 0 {
            return Err(ArrayError::EmptyArray);
        }
        let invalid = |reason: &str| ArrayError::InvalidConfiguration {
            reason: reason.to_owned(),
        };
        if group_starts.is_empty() {
            return Err(invalid("a configuration needs at least one group"));
        }
        if group_starts[0] != 0 {
            return Err(invalid("the first group must start at module 0"));
        }
        for pair in group_starts.windows(2) {
            if pair[1] <= pair[0] {
                return Err(invalid("group starts must be strictly increasing"));
            }
        }
        if *group_starts.last().expect("non-empty") >= module_count {
            return Err(invalid("a group start lies beyond the last module"));
        }
        Ok(Self {
            group_starts,
            module_count,
        })
    }

    /// Splits `module_count` modules into `group_count` groups of (near)
    /// equal size — the static baseline wiring (e.g. the paper's fixed
    /// 10 × 10 array for `module_count = 100`, `group_count = 10`).
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::InvalidGroupCount`] if `group_count` is zero or
    /// exceeds `module_count`, and [`ArrayError::EmptyArray`] if
    /// `module_count` is zero.
    pub fn uniform(module_count: usize, group_count: usize) -> Result<Self, ArrayError> {
        if module_count == 0 {
            return Err(ArrayError::EmptyArray);
        }
        if group_count == 0 || group_count > module_count {
            return Err(ArrayError::InvalidGroupCount {
                groups: group_count,
                modules: module_count,
            });
        }
        let starts = (0..group_count)
            .map(|j| j * module_count / group_count)
            .collect();
        Self::new(starts, module_count)
    }

    /// Every module in its own group: a pure series string.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::EmptyArray`] if `module_count` is zero.
    pub fn all_series(module_count: usize) -> Result<Self, ArrayError> {
        Self::uniform(module_count, module_count)
    }

    /// All modules in one group: a pure parallel bank.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::EmptyArray`] if `module_count` is zero.
    pub fn all_parallel(module_count: usize) -> Result<Self, ArrayError> {
        Self::uniform(module_count, 1)
    }

    /// Number of modules in the chain.
    #[must_use]
    pub const fn module_count(&self) -> usize {
        self.module_count
    }

    /// Number of groups `n`.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.group_starts.len()
    }

    /// The 0-based start indices of the groups (the paper's `g_j`, shifted to
    /// 0-based indexing).
    #[must_use]
    pub fn group_starts(&self) -> &[usize] {
        &self.group_starts
    }

    /// Returns the `j`-th group, if it exists.
    #[must_use]
    pub fn group(&self, j: usize) -> Option<Group> {
        if j >= self.group_starts.len() {
            return None;
        }
        let start = self.group_starts[j];
        let end = self
            .group_starts
            .get(j + 1)
            .copied()
            .unwrap_or(self.module_count);
        Some(Group::new(start, end))
    }

    /// Iterator over all groups in series order.
    pub fn groups(&self) -> impl Iterator<Item = Group> + '_ {
        (0..self.group_count()).map(move |j| self.group(j).expect("index in range"))
    }

    /// Returns the index of the group containing module `module_index`, if it
    /// is inside the chain.
    #[must_use]
    pub fn group_of(&self, module_index: usize) -> Option<usize> {
        if module_index >= self.module_count {
            return None;
        }
        match self.group_starts.binary_search(&module_index) {
            Ok(j) => Some(j),
            Err(j) => Some(j - 1),
        }
    }

    /// Size of the largest group.
    #[must_use]
    pub fn max_group_len(&self) -> usize {
        self.groups().map(|g| g.len()).max().unwrap_or(0)
    }

    /// Derives the per-adjacent-pair switch states realising this
    /// configuration.
    #[must_use]
    pub fn switch_bank(&self) -> SwitchBank {
        SwitchBank::from_configuration(self)
    }

    /// Number of switch actuations (opens plus closes) needed to move from
    /// `self` to `other`.
    ///
    /// Equal to `self.switch_bank().toggles_to(&other.switch_bank())`
    /// without building either bank: link `i` is series exactly when module
    /// `i + 1` starts a group, so the links that change are the interior
    /// group starts held by one configuration but not the other, found by
    /// one merge walk over the two sorted start lists.
    ///
    /// # Errors
    ///
    /// Returns [`ArrayError::DimensionMismatch`] if the two configurations
    /// cover different module counts.
    pub fn switch_toggles_to(&self, other: &Self) -> Result<usize, ArrayError> {
        if self.module_count != other.module_count {
            return Err(ArrayError::DimensionMismatch {
                modules: self.module_count,
                temperatures: other.module_count,
            });
        }
        let (a, b) = (&self.group_starts[1..], &other.group_starts[1..]);
        let (mut i, mut j, mut shared) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    shared += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let changed_links = a.len() + b.len() - 2 * shared;
        Ok(changed_links * PairLink::Series.toggles_to(PairLink::Parallel))
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sizes: Vec<String> = self.groups().map(|g| g.len().to_string()).collect();
        write!(f, "C[{} modules: {}]", self.module_count, sizes.join("+"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn group_basics() {
        let g = Group::new(2, 5);
        assert_eq!(g.start(), 2);
        assert_eq!(g.end(), 5);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.indices().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one module")]
    fn empty_group_is_rejected() {
        let _ = Group::new(3, 3);
    }

    #[test]
    fn construction_validation() {
        assert!(Configuration::new(vec![0, 3, 6], 10).is_ok());
        assert!(matches!(
            Configuration::new(vec![0], 0),
            Err(ArrayError::EmptyArray)
        ));
        assert!(Configuration::new(vec![], 10).is_err());
        assert!(Configuration::new(vec![1, 3], 10).is_err());
        assert!(Configuration::new(vec![0, 3, 3], 10).is_err());
        assert!(Configuration::new(vec![0, 5, 4], 10).is_err());
        assert!(Configuration::new(vec![0, 10], 10).is_err());
    }

    #[test]
    fn uniform_partitions_cover_all_modules() {
        let config = Configuration::uniform(100, 10).unwrap();
        assert_eq!(config.group_count(), 10);
        let total: usize = config.groups().map(|g| g.len()).sum();
        assert_eq!(total, 100);
        for g in config.groups() {
            assert_eq!(g.len(), 10);
        }
    }

    #[test]
    fn uniform_with_remainder_stays_contiguous() {
        let config = Configuration::uniform(10, 3).unwrap();
        let sizes: Vec<usize> = config.groups().map(|g| g.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(sizes.len(), 3);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn degenerate_configurations() {
        let series = Configuration::all_series(5).unwrap();
        assert_eq!(series.group_count(), 5);
        assert!(series.groups().all(|g| g.len() == 1));
        let parallel = Configuration::all_parallel(5).unwrap();
        assert_eq!(parallel.group_count(), 1);
        assert_eq!(parallel.group(0).unwrap().len(), 5);
    }

    #[test]
    fn invalid_group_counts_are_rejected() {
        assert!(matches!(
            Configuration::uniform(10, 0),
            Err(ArrayError::InvalidGroupCount { .. })
        ));
        assert!(matches!(
            Configuration::uniform(10, 11),
            Err(ArrayError::InvalidGroupCount { .. })
        ));
    }

    #[test]
    fn group_of_locates_modules() {
        let config = Configuration::new(vec![0, 3, 6], 10).unwrap();
        assert_eq!(config.group_of(0), Some(0));
        assert_eq!(config.group_of(2), Some(0));
        assert_eq!(config.group_of(3), Some(1));
        assert_eq!(config.group_of(5), Some(1));
        assert_eq!(config.group_of(6), Some(2));
        assert_eq!(config.group_of(9), Some(2));
        assert_eq!(config.group_of(10), None);
    }

    #[test]
    fn display_shows_group_sizes() {
        let config = Configuration::new(vec![0, 3, 6], 10).unwrap();
        assert_eq!(config.to_string(), "C[10 modules: 3+3+4]");
    }

    #[test]
    fn max_group_len_and_accessors() {
        let config = Configuration::new(vec![0, 2, 9], 12).unwrap();
        assert_eq!(config.max_group_len(), 7);
        assert_eq!(config.module_count(), 12);
        assert_eq!(config.group_starts(), &[0, 2, 9]);
        assert!(config.group(3).is_none());
    }

    #[test]
    fn toggles_between_mismatched_sizes_fail() {
        let a = Configuration::uniform(10, 2).unwrap();
        let b = Configuration::uniform(12, 2).unwrap();
        assert!(matches!(
            a.switch_toggles_to(&b),
            Err(ArrayError::DimensionMismatch {
                modules: 10,
                temperatures: 12
            })
        ));
    }

    /// The switch-bank diff `switch_toggles_to` replaced, kept as its oracle.
    fn bank_toggles(a: &Configuration, b: &Configuration) -> usize {
        a.switch_bank().toggles_to(&b.switch_bank())
    }

    /// A configuration whose interior module `i` starts a group when
    /// `coins[i] < density`.
    fn from_coins(modules: usize, coins: &[f64], density: f64) -> Configuration {
        let starts = std::iter::once(0)
            .chain((1..modules).filter(|&i| coins[i] < density))
            .collect();
        Configuration::new(starts, modules).unwrap()
    }

    #[test]
    fn toggles_match_the_bank_diff_at_the_extremes() {
        for modules in [1, 2, 7, 400] {
            let series = Configuration::all_series(modules).unwrap();
            let parallel = Configuration::all_parallel(modules).unwrap();
            let uniform = Configuration::uniform(modules, modules.div_ceil(3)).unwrap();
            for a in [&series, &parallel, &uniform] {
                for b in [&series, &parallel, &uniform] {
                    assert_eq!(a.switch_toggles_to(b).unwrap(), bank_toggles(a, b));
                }
            }
            // Every link flips between one group and N groups.
            assert_eq!(
                series.switch_toggles_to(&parallel).unwrap(),
                3 * (modules - 1)
            );
        }
    }

    proptest! {
        /// Every uniform partition covers all modules exactly once with
        /// contiguous, ordered groups.
        #[test]
        fn prop_uniform_partitions_are_exact(modules in 1usize..300, groups in 1usize..50) {
            prop_assume!(groups <= modules);
            let config = Configuration::uniform(modules, groups).unwrap();
            prop_assert_eq!(config.group_count(), groups);
            let mut covered = 0usize;
            let mut next_expected = 0usize;
            for g in config.groups() {
                prop_assert_eq!(g.start(), next_expected);
                covered += g.len();
                next_expected = g.end();
            }
            prop_assert_eq!(covered, modules);
            prop_assert_eq!(next_expected, modules);
        }

        /// The merge-walk toggle count equals the switch-bank diff, in both
        /// directions, for arbitrary pairs of same-size configurations.
        #[test]
        fn prop_toggles_match_the_bank_diff(
            modules in 1usize..120,
            density_a in 0.0_f64..1.0,
            density_b in 0.0_f64..1.0,
            coins_a in collection::vec(0.0_f64..1.0, 120),
            coins_b in collection::vec(0.0_f64..1.0, 120),
        ) {
            let a = from_coins(modules, &coins_a, density_a);
            let b = from_coins(modules, &coins_b, density_b);
            prop_assert_eq!(a.switch_toggles_to(&b).unwrap(), bank_toggles(&a, &b));
            prop_assert_eq!(b.switch_toggles_to(&a).unwrap(), bank_toggles(&b, &a));
            prop_assert_eq!(a.switch_toggles_to(&a).unwrap(), 0);
        }

        /// `group_of` agrees with iterating the groups.
        #[test]
        fn prop_group_of_agrees_with_groups(modules in 1usize..120, groups in 1usize..30) {
            prop_assume!(groups <= modules);
            let config = Configuration::uniform(modules, groups).unwrap();
            for (j, g) in config.groups().enumerate() {
                for i in g.indices() {
                    prop_assert_eq!(config.group_of(i), Some(j));
                }
            }
        }
    }
}
