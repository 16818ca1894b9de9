//! Bit-exact text encoding of sweep cell reports.
//!
//! A CELL frame's payload is line-oriented UTF-8.  Every `f64` travels as the
//! sixteen-digit lowercase hex of its IEEE-754 bit pattern, so decoding
//! reconstructs the *identical* bits — no shortest-representation or
//! rounding concerns.  Aggregates ([`SimulationReport`]'s energy totals and
//! [`SweepReport`](teg_sim::SweepReport)'s summaries) are *not* transported:
//! the constructors recompute them from the records in record order, which is
//! exactly how the in-process runner produced them, so a decoded report
//! compares equal (`PartialEq`) to the original.
//!
//! Layout (one cell):
//!
//! ```text
//! cell <index>
//! modules <module_count>
//! seed <seed>
//! variation <variation>
//! drive <label>
//! fault <label>
//! lineup <label>
//! step <f64 hex>
//! reports <n>
//! scheme <name>            ┐
//! switches <count>         │ repeated n times; each scheme block carries
//! runtime <total> <max> <invocations> <faulted>
//! records <m>              │ its m per-step records
//! r <time> <array> <net> <delivered> <ideal> <groups> <switched> <overhead> <comp> <faults> <events>
//! ```
//!
//! Labels and scheme names occupy the rest of their line, so they may contain
//! spaces; nothing else in the grammar is positional past the first token.

use teg_reconfig::RuntimeStats;
use teg_sim::{CellKey, ComparisonReport, SimulationReport, StepRecord, SweepCellReport};
use teg_units::{Joules, Seconds, Watts};

use crate::wire::{malformed, Lines, WireError};

/// Encodes an `f64` as the sixteen-digit lowercase hex of its bit pattern.
#[must_use]
pub fn f64_hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// Decodes an `f64` from [`f64_hex`] output.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] when the token is not sixteen hex digits.
pub fn parse_f64_hex(token: &str) -> Result<f64, WireError> {
    if token.len() != 16 {
        return Err(malformed(format!("bad f64 hex token `{token}`")));
    }
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| malformed(format!("bad f64 hex token `{token}`")))
}

/// Serialises one cell report into a CELL frame payload.
#[must_use]
pub fn encode_cell(cell: &SweepCellReport) -> String {
    let key = cell.key();
    let mut out = String::new();
    out.push_str(&format!("cell {}\n", key.index()));
    out.push_str(&format!("modules {}\n", key.module_count()));
    out.push_str(&format!("seed {}\n", key.seed()));
    out.push_str(&format!("variation {}\n", key.variation()));
    out.push_str(&format!("drive {}\n", key.drive()));
    out.push_str(&format!("fault {}\n", key.fault()));
    out.push_str(&format!("lineup {}\n", key.lineup()));
    let reports = cell.report().reports();
    let step = reports.first().map(|r| r.step()).unwrap_or(Seconds::ZERO);
    out.push_str(&format!("step {}\n", f64_hex(step.value())));
    out.push_str(&format!("reports {}\n", reports.len()));
    for report in reports {
        out.push_str(&format!("scheme {}\n", report.scheme()));
        out.push_str(&format!("switches {}\n", report.switch_count()));
        let rt = report.runtime();
        out.push_str(&format!(
            "runtime {} {} {} {}\n",
            f64_hex(rt.total().value()),
            f64_hex(rt.max().value()),
            rt.invocations(),
            rt.faulted_invocations(),
        ));
        out.push_str(&format!("records {}\n", report.records().len()));
        for r in report.records() {
            out.push_str(&format!(
                "r {} {} {} {} {} {} {} {} {} {} {}\n",
                f64_hex(r.time().value()),
                f64_hex(r.array_power().value()),
                f64_hex(r.net_power().value()),
                f64_hex(r.delivered_power().value()),
                f64_hex(r.ideal_power().value()),
                r.group_count(),
                u8::from(r.switched()),
                f64_hex(r.overhead_energy().value()),
                f64_hex(r.computation().value()),
                r.faults_active(),
                r.fault_events(),
            ));
        }
    }
    out
}

fn fields<'a, const N: usize>(line: &'a str, what: &str) -> Result<[&'a str; N], WireError> {
    let mut out = [""; N];
    let mut split = line.split(' ');
    for slot in &mut out {
        *slot = split
            .next()
            .ok_or_else(|| malformed(format!("{what} line has too few fields: `{line}`")))?;
    }
    if split.next().is_some() {
        return Err(malformed(format!(
            "{what} line has too many fields: `{line}`"
        )));
    }
    Ok(out)
}

/// Rebuilds a cell report from a CELL frame payload, bit-identically.
///
/// # Errors
///
/// Returns [`WireError::Malformed`] naming the offending line when the
/// payload deviates from the grammar.
pub fn decode_cell(text: &str) -> Result<SweepCellReport, WireError> {
    let mut lines = Lines::new(text);
    let index = lines.usize("cell")?;
    let modules = lines.usize("modules")?;
    let seed = lines.u64("seed")?;
    let variation = lines.usize("variation")?;
    let drive = lines.rest("drive")?.to_owned();
    let fault = lines.rest("fault")?.to_owned();
    let lineup = lines.rest("lineup")?.to_owned();
    let step = Seconds::new(parse_f64_hex(lines.rest("step")?)?);
    let report_count = lines.usize("reports")?;
    let mut reports = Vec::with_capacity(report_count);
    for _ in 0..report_count {
        let scheme = lines.rest("scheme")?.to_owned();
        let switches = lines.usize("switches")?;
        let [total, max, invocations, faulted] = fields(lines.rest("runtime")?, "runtime")?;
        let runtime = RuntimeStats::from_parts(
            Seconds::new(parse_f64_hex(total)?),
            Seconds::new(parse_f64_hex(max)?),
            invocations
                .parse()
                .map_err(|_| malformed("runtime invocations is not an integer"))?,
            faulted
                .parse()
                .map_err(|_| malformed("runtime faulted count is not an integer"))?,
        );
        let record_count = lines.usize("records")?;
        let mut records = Vec::with_capacity(record_count);
        for _ in 0..record_count {
            let [time, array, net, delivered, ideal, groups, switched, overhead, comp, faults, events] =
                fields(lines.rest("r")?, "record")?;
            let switched = match switched {
                "0" => false,
                "1" => true,
                other => {
                    return Err(malformed(format!("record switched flag `{other}`")));
                }
            };
            let record = StepRecord::new(
                Seconds::new(parse_f64_hex(time)?),
                Watts::new(parse_f64_hex(array)?),
                Watts::new(parse_f64_hex(net)?),
                Watts::new(parse_f64_hex(delivered)?),
                Watts::new(parse_f64_hex(ideal)?),
                groups
                    .parse()
                    .map_err(|_| malformed("record group count is not an integer"))?,
                switched,
                Joules::new(parse_f64_hex(overhead)?),
                Seconds::new(parse_f64_hex(comp)?),
            )
            .with_faults(
                faults
                    .parse()
                    .map_err(|_| malformed("record fault count is not an integer"))?,
                events
                    .parse()
                    .map_err(|_| malformed("record event count is not an integer"))?,
            );
            records.push(record);
        }
        reports.push(SimulationReport::new(
            scheme, records, step, switches, runtime,
        ));
    }
    let key = CellKey::from_parts(index, modules, seed, drive, variation, fault, lineup);
    Ok(SweepCellReport::from_parts(
        key,
        ComparisonReport::from_reports(reports),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use teg_sim::{RuntimePolicy, ScenarioGrid, SchemeLineup, SweepRunner};

    fn sample_cells() -> Vec<SweepCellReport> {
        let grid = ScenarioGrid::builder()
            .module_counts([6])
            .seeds([3])
            .duration_seconds(8)
            .lineups([SchemeLineup::parse("paper-fixed:0.002").unwrap()])
            .build()
            .unwrap();
        let report = SweepRunner::new()
            .workers(1)
            .runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.002)))
            .run(&grid)
            .unwrap();
        report.cells().to_vec()
    }

    #[test]
    fn f64_hex_is_bit_exact_for_awkward_values() {
        for v in [
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0 / 3.0,
            6.02e23,
        ] {
            let decoded = parse_f64_hex(&f64_hex(v)).unwrap();
            assert_eq!(v.to_bits(), decoded.to_bits(), "{v}");
        }
        let nan = parse_f64_hex(&f64_hex(f64::NAN)).unwrap();
        assert_eq!(f64::NAN.to_bits(), nan.to_bits());
        assert!(parse_f64_hex("xyz").is_err());
        assert!(parse_f64_hex("00").is_err());
        assert!(parse_f64_hex("zzzzzzzzzzzzzzzz").is_err());
    }

    #[test]
    fn real_cells_round_trip_bit_identically() {
        for cell in sample_cells() {
            let payload = encode_cell(&cell);
            let decoded = decode_cell(&payload).unwrap();
            assert_eq!(decoded, cell);
            // And re-encoding is byte-identical — the stream is canonical.
            assert_eq!(encode_cell(&decoded), payload);
        }
    }

    #[test]
    fn malformed_payloads_name_the_problem() {
        let cell = &sample_cells()[0];
        let good = encode_cell(cell);
        for (broken, needle) in [
            (String::from("cell zero\n"), "not an integer"),
            (String::from("bogus 0\n"), "expected `cell"),
            (good.replace("reports 4", "reports 9"), "payload ended"),
            (good.replacen("r ", "r 0123456789abcdef ", 1), "too many"),
            (String::new(), "payload ended"),
        ] {
            let err = decode_cell(&broken).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
