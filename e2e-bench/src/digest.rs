//! FNV-1a digests over the wire encoding of sweep cells.
//!
//! The codec writes every `f64` as its bit pattern, so two reports digest
//! equal exactly when they are bit-identical.

use teg_serve::codec::encode_cell;
use teg_sim::SweepCellReport;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(OFFSET)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    pub const fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of `codec::encode_cell` over every cell, in order.
pub fn cells_digest<'a>(cells: impl IntoIterator<Item = &'a SweepCellReport>) -> u64 {
    let mut fnv = Fnv::default();
    for cell in cells {
        fnv.update(encode_cell(cell).as_bytes());
    }
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use teg_sim::{GridSpec, RuntimePolicy, SweepRunner};
    use teg_units::Seconds;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let hash = |text: &str| {
            let mut fnv = Fnv::default();
            fnv.update(text.as_bytes());
            fnv.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn identical_reports_share_a_digest() {
        let run = || {
            let grid = GridSpec::parse("modules=6|seeds=3,4|drive=city:4|lineup=paper-fixed:0.002")
                .unwrap()
                .to_grid()
                .unwrap();
            SweepRunner::new()
                .workers(2)
                .runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.002)))
                .run(&grid)
                .unwrap()
        };
        let (first, second) = (run(), run());
        assert_eq!(cells_digest(first.cells()), cells_digest(second.cells()));
        // Order matters: the digest pins the cell sequence, not a set.
        let reversed: Vec<_> = first.cells().iter().rev().collect();
        assert_ne!(cells_digest(first.cells()), cells_digest(reversed));
    }
}
