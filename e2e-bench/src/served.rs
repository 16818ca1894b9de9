//! Requests served by an in-process `teg-served` daemon on loopback.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use teg_serve::{ServeClient, ServerConfig, StatsReply, SubmitRequest, SweepServer};
use teg_sim::GridSpec;

use crate::check::Reference;
use crate::trace;
use crate::POLICY;

/// Closed-loop client connections: two, or one on a single core.
pub fn clients() -> usize {
    crate::sys::nproc().min(2)
}

/// A daemon with one worker, journaling every request into its own fresh
/// directory.
pub struct Daemon {
    pub server: SweepServer,
    pub journals: PathBuf,
}

pub fn start(journals: PathBuf) -> std::io::Result<Daemon> {
    fs::create_dir_all(&journals)?;
    let server = SweepServer::start(ServerConfig {
        workers: 1,
        checkpoint_dir: Some(journals.clone()),
        ..ServerConfig::default()
    })?;
    Ok(Daemon { server, journals })
}

/// Opens the client connections and waits until the daemon serves each.
///
/// The accept loop polls every 50 ms, so a fresh connection waits 0–50 ms
/// before its first frame is read.  A STATS round trip absorbs that wait
/// here, outside every timed phase.
pub fn connect(daemon: &Daemon) -> Result<Vec<ServeClient>, String> {
    (0..clients())
        .map(|_| {
            let mut client =
                ServeClient::connect(daemon.server.addr()).map_err(|e| e.to_string())?;
            client.stats().map_err(|e| e.to_string())?;
            Ok(client)
        })
        .collect()
}

/// Stops the daemon and checks it left no journal behind: every request
/// ended in DONE, which deletes its journal.
pub fn stop(daemon: Daemon, clients: Vec<ServeClient>) -> Result<(), String> {
    drop(clients);
    daemon.server.shutdown();
    let leftover = fs::read_dir(&daemon.journals)
        .map_err(|e| e.to_string())?
        .count();
    fs::remove_dir_all(&daemon.journals).map_err(|e| e.to_string())?;
    if leftover == 0 {
        Ok(())
    } else {
        Err(format!("{leftover} checkpoint journals left after the run"))
    }
}

/// Request ids are never reused within a process, so no SUBMIT can resume
/// an earlier journal.
static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

/// Submits one grid with a fresh id and streams the reply to DONE, checking
/// every cell against the in-process reference result.
fn request(client: &mut ServeClient, line: &str, reference: &Reference) -> Result<(), String> {
    let expected = reference.cells();
    if expected.is_empty() {
        return Err("the served grid has no reference result".to_owned());
    }
    let request = SubmitRequest {
        id: format!("bench-{}", NEXT_ID.fetch_add(1, Ordering::Relaxed)),
        grid: GridSpec::parse(line).map_err(|e| e.to_string())?,
        policy: POLICY,
    };
    let mut stream = {
        let _span = trace::span("serve.admit");
        client.submit(&request).map_err(|e| e.to_string())?
    };
    let (cells, resumed) = (stream.accepted().cells, stream.accepted().resumed);
    if resumed != 0 || cells != expected.len() {
        return Err(format!(
            "ACCEPTED {cells} cells with {resumed} resumed; expected {} fresh",
            expected.len()
        ));
    }
    let mut received = 0;
    loop {
        // The wait for the first CELL, then for each frame after a CELL
        // (the next CELL or the DONE), so one-cell requests have a gap too.
        let waited = Instant::now();
        let next = stream.next_cell().map_err(|e| e.to_string())?;
        let layer = if received == 0 {
            "serve.first_cell_wait"
        } else {
            "serve.cell_gap"
        };
        trace::record(layer, waited, Instant::now());
        let Some(cell) = next else { break };
        if expected.get(received) != Some(cell) {
            return Err(format!("served cell {received} differs from in-process"));
        }
        received += 1;
    }
    let done = stream.done().ok_or("stream ended without DONE")?;
    if received != expected.len() || done.executed != expected.len() || done.resumed != 0 {
        return Err(format!(
            "DONE after {received} cells ({} executed, {} resumed); expected {}",
            done.executed,
            done.resumed,
            expected.len()
        ));
    }
    Ok(())
}

/// What the clients of a closed loop did.
pub struct Pass {
    pub requests: usize,
    pub failed: usize,
    /// One span list per client.
    pub spans: Vec<Vec<trace::Span>>,
}

/// Each client submits `line` and issues its next request only when the
/// previous one reached DONE, until `requests` requests were issued between
/// them.  Every request runs inside a `serve.request` span.
pub fn closed_loop(
    clients: &mut [ServeClient],
    line: &str,
    reference: &Reference,
    requests: usize,
    epoch: Instant,
) -> Pass {
    let next = AtomicUsize::new(0);
    let per_client: Vec<(usize, usize, Vec<trace::Span>)> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    trace::start(epoch);
                    let (mut issued, mut failed) = (0, 0);
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= requests {
                            break;
                        }
                        issued += 1;
                        trace::set_request(index as u64);
                        let _span = trace::span("serve.request");
                        if let Err(reason) = request(client, line, reference) {
                            failed += 1;
                            eprintln!("served request {index} failed: {reason}");
                        }
                    }
                    (issued, failed, trace::finish())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or((0, 1, Vec::new())))
            .collect()
    });
    let mut pass = Pass {
        requests: 0,
        failed: 0,
        spans: Vec::new(),
    };
    for (issued, failed, spans) in per_client {
        pass.requests += issued;
        pass.failed += failed;
        pass.spans.push(spans);
    }
    pass
}

/// The daemon's counters once it has no request in flight.
pub fn idle_stats(client: &mut ServeClient) -> Result<StatsReply, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().map_err(|e| e.to_string())?;
        if stats.active == 0 && stats.queued_cells == 0 {
            return Ok(stats);
        }
        if Instant::now() > deadline {
            return Err("daemon still busy 10 s after the last DONE".to_owned());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A fresh journal directory under `work`.
pub fn journal_dir(work: &Path) -> PathBuf {
    static NEXT_DIR: AtomicUsize = AtomicUsize::new(0);
    work.join(format!(
        "journals-{}",
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ))
}
