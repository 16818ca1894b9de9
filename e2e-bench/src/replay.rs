//! Replays finished cells through the daemon's per-cell serve functions:
//! codec, checkpoint journal and wire framing.

use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use teg_serve::checkpoint::{delete_checkpoint, CheckpointWriter};
use teg_serve::codec::{decode_cell, encode_cell};
use teg_serve::protocol::policy_token;
use teg_serve::{read_frame, write_frame, FrameKind, ReadOutcome, MAX_FRAME};
use teg_sim::SweepCellReport;

use crate::POLICY;

/// Mean cost of each serve function per cell.
#[derive(Debug, Default)]
pub struct Costs {
    pub encode_us: f64,
    pub decode_us: f64,
    pub journal_append_us: f64,
    pub frame_roundtrip_us: f64,
    pub payload_bytes_per_cell: f64,
}

/// About this many payload bytes go through each function per cell, so a
/// 3 KB cell is timed over many calls and a 600 KB one over a single call.
const BYTES_PER_CELL: usize = 1 << 18;
const MAX_REPEATS: usize = 64;

/// Runs every cell through encode, decode, a flushed journal append and a
/// frame write + read over a buffer, checking each round trip.
pub fn replay<'a>(
    cells: impl IntoIterator<Item = &'a SweepCellReport>,
    journal_dir: &Path,
    grid_line: &str,
) -> Result<Costs, String> {
    let id = "replay";
    let mut journal = CheckpointWriter::open(journal_dir, id, grid_line, &policy_token(POLICY))
        .map_err(|e| e.to_string())?;
    let (mut encode, mut decode, mut append, mut frame) = (0.0, 0.0, 0.0, 0.0);
    let (mut bytes, mut cell_count, mut calls) = (0, 0, 0);
    for (index, cell) in cells.into_iter().enumerate() {
        let payload = encode_cell(cell);
        bytes += payload.len();
        cell_count += 1;
        let repeats = (BYTES_PER_CELL / payload.len().max(1)).clamp(1, MAX_REPEATS);
        calls += repeats;

        let began = Instant::now();
        for _ in 0..repeats {
            std::hint::black_box(encode_cell(std::hint::black_box(cell)));
        }
        encode += micros(began);

        let began = Instant::now();
        for _ in 0..repeats {
            let decoded = decode_cell(std::hint::black_box(&payload)).map_err(|e| e.to_string())?;
            if &decoded != cell {
                return Err(format!("cell {} does not survive the codec", cell.key()));
            }
        }
        decode += micros(began);

        let began = Instant::now();
        for _ in 0..repeats {
            journal.append(index, &payload).map_err(|e| e.to_string())?;
        }
        append += micros(began);

        let mut buffer = Vec::with_capacity(payload.len() + 5);
        let began = Instant::now();
        for _ in 0..repeats {
            buffer.clear();
            write_frame(&mut buffer, FrameKind::Cell, payload.as_bytes(), MAX_FRAME)
                .map_err(|e| e.to_string())?;
            match read_frame(&mut Cursor::new(&buffer), MAX_FRAME).map_err(|e| e.to_string())? {
                ReadOutcome::Frame(read) if read.payload == payload.as_bytes() => {}
                _ => return Err(format!("cell {} does not survive framing", cell.key())),
            }
        }
        frame += micros(began);
    }
    drop(journal);
    delete_checkpoint(journal_dir, id).map_err(|e| e.to_string())?;
    if cell_count == 0 {
        return Err("no cells to replay".to_owned());
    }
    let calls = calls as f64;
    Ok(Costs {
        encode_us: encode / calls,
        decode_us: decode / calls,
        journal_append_us: append / calls,
        frame_roundtrip_us: frame / calls,
        payload_bytes_per_cell: bytes as f64 / cell_count as f64,
    })
}

fn micros(began: Instant) -> f64 {
    began.elapsed().as_secs_f64() * 1e6
}
