//! The workloads and the seeded generator that turns a workload seed into
//! the grid-spec lines the program receives.

use std::collections::BTreeSet;

/// A workload, expanded from its seed.
#[derive(Debug, Clone)]
pub struct Plan {
    pub name: &'static str,
    /// The grid every sweep of the run covers, as one `GridSpec` line.
    pub grid: String,
    /// The tiny grid the traced run serves through the daemon: compute is
    /// small there, so the serve path's own costs show.
    pub served_grid: String,
}

pub const WORKLOADS: [&str; 2] = ["paper-table1", "scale-onr"];

/// Seeds per grid.  Per-seed cell cost varies by up to ±13 %, so a sweep
/// covers many seeds to keep run-to-run spread low.
const SEEDS: usize = 16;
/// Cells of the served grid, one per seed.
const SERVED_CELLS: usize = 32;

const PAPER_DRIVE: &str = "drive=porter-ii-800s:800|var=none";

pub fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let mut rng = SplitMix64::new(seed ^ name_salt(workload));
    let seeds = seed_list(&distinct_seeds(&mut rng, SEEDS));
    let (name, grid) = match workload {
        "paper-table1" => (
            "paper-table1",
            format!(
                "modules=100|seeds={seeds}|{PAPER_DRIVE}|fault=healthy|lineup=paper-fixed:0.002"
            ),
        ),
        // Each seed runs under all three fault profiles: they share a
        // thermal key, so the grid's trace cache serves two of every three
        // samples.
        "scale-onr" => (
            "scale-onr",
            format!(
                "modules=400|seeds={seeds}|{PAPER_DRIVE}\
                 |fault=healthy,random:moderate:moderate,random:severe:severe\
                 |lineup=fixed:onr:dnor-det:0.002+inor+baseline"
            ),
        ),
        _ => return None,
    };
    let served_grid = format!(
        "modules=8|seeds={}|drive=city:5|var=none|fault=healthy|lineup=paper-fixed:0.002",
        seed_list(&distinct_seeds(&mut rng, SERVED_CELLS))
    );
    Some(Plan {
        name,
        grid,
        served_grid,
    })
}

/// Keeps the workloads' seed streams apart when run with one seed.
fn name_salt(workload: &str) -> u64 {
    let mut fnv = crate::digest::Fnv::default();
    fnv.update(workload.as_bytes());
    fnv.finish()
}

/// `count` distinct drive-cycle seeds below 2^32, in generation order.
fn distinct_seeds(rng: &mut SplitMix64, count: usize) -> Vec<u64> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let seed = rng.next() >> 32;
        if seen.insert(seed) {
            out.push(seed);
        }
    }
    out
}

fn seed_list(seeds: &[u64]) -> String {
    let list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    list.join(",")
}

/// SplitMix64 (Steele, Lea and Flood): a tiny, well-mixed seed expander.
struct SplitMix64(u64);

impl SplitMix64 {
    const fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teg_sim::GridSpec;

    #[test]
    fn every_workload_expands_to_canonical_grids() {
        for name in WORKLOADS {
            let plan = plan(name, 1).unwrap();
            assert_eq!(plan.name, name);
            for line in [&plan.grid, &plan.served_grid] {
                let spec = GridSpec::parse(line).unwrap();
                // Canonical lines: what the daemon echoes back is what we sent.
                assert_eq!(&spec.spec().unwrap(), line);
            }
            let grid = GridSpec::parse(&plan.grid).unwrap().to_grid().unwrap();
            assert_eq!(grid.unique_sample_indices().len(), SEEDS, "{name}");
        }
        assert!(plan("nonesuch", 1).is_none());
    }

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        let lines = |seed| {
            let plan = plan("scale-onr", seed).unwrap();
            (plan.grid, plan.served_grid)
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7).0, lines(8).0);
        assert_ne!(lines(7).1, lines(8).1);
    }
}
