//! End-to-end tests of the sweep service over real loopback sockets.
//!
//! The determinism contract under test: with a `paper-fixed` lineup and a
//! `Fixed` runtime policy, a sweep submitted over TCP must produce a
//! [`SweepReport`] **bit-identical** (`PartialEq` over every `f64`) to the
//! one the in-process [`SweepRunner`] computes, repeat submissions must
//! stream byte-identical payloads, and a killed-and-resumed sweep must
//! re-solve zero finished cells.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use teg_serve::{
    read_frame, write_frame, FrameKind, ReadOutcome, ServeClient, ServeError, ServerConfig,
    SubmitRequest, SweepServer, MAX_FRAME,
};
use teg_sim::{GridSpec, RuntimePolicy, SweepReport, SweepRunner};
use teg_units::Seconds;

const POLICY: RuntimePolicy = RuntimePolicy::Fixed(Seconds::new(0.002));

/// A small deterministic sweep: 4 cells, 4 schemes each.
const SMALL: &str = "modules=6,8|seeds=1,2|drive=city:12|lineup=paper-fixed:0.002";

/// A sweep slow enough (hundreds of ms per cell in a debug build, tens in
/// release) that interrupting it after the first streamed cell reliably
/// leaves later cells unsolved.  Sized against the memoised EHTR decide:
/// the partition DP grows ~quartically in the module count, so 64 modules
/// over a 60 s cycle keeps each cell comfortably slower than a client
/// round-trip even in release builds (re-sized from 48 when the reference
/// DP adopted flat scratch tables and a reachability bound).
const SLOW: &str = "modules=64|seeds=1,2,3,4,5,6,7,8|drive=city:60|lineup=paper-fixed:0.002";

fn expected_report(spec: &str) -> SweepReport {
    let grid = GridSpec::parse(spec).unwrap().to_grid().unwrap();
    SweepRunner::new()
        .runtime_policy(POLICY)
        .run(&grid)
        .unwrap()
}

fn request(id: &str, spec: &str) -> SubmitRequest {
    SubmitRequest {
        id: id.into(),
        grid: GridSpec::parse(spec).unwrap(),
        policy: POLICY,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "teg-serve-test-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn tcp_sweep_is_bit_identical_to_in_process_runner() {
    let server = SweepServer::start(ServerConfig::default()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let stream = client.submit(&request("tier1", SMALL)).unwrap();
    assert_eq!(stream.accepted().cells, 4);
    assert_eq!(stream.accepted().resumed, 0);
    let report = stream.into_report().unwrap();
    assert_eq!(report, expected_report(SMALL));
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed_requests, 1);
    assert_eq!(stats.active, 0);
    // The grid's 4 unique thermal keys were each solved exactly once, on
    // demand; the retired planner counters stay at zero.
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.presolve_planned, 0);
    assert_eq!(stats.presolve_solved, 0);
    server.shutdown();
}

/// Drives one submission over a raw socket and returns every server frame's
/// `(kind, payload)` through DONE.
fn raw_exchange(addr: std::net::SocketAddr, submit: &SubmitRequest) -> Vec<(FrameKind, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let payload = submit.encode().unwrap();
    write_frame(
        &mut stream,
        FrameKind::Submit,
        payload.as_bytes(),
        MAX_FRAME,
    )
    .unwrap();
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut stream, MAX_FRAME).unwrap() {
            ReadOutcome::Frame(frame) => {
                let done = frame.kind == FrameKind::Done;
                assert!(
                    !matches!(frame.kind, FrameKind::Rejected | FrameKind::Error),
                    "sweep aborted: {:?}",
                    frame.text()
                );
                frames.push((frame.kind, frame.payload));
                if done {
                    return frames;
                }
            }
            ReadOutcome::Idle => {}
            ReadOutcome::Eof => panic!("stream ended before DONE"),
        }
    }
}

#[test]
fn repeat_submissions_stream_byte_identical_frames() {
    let server = SweepServer::start(ServerConfig::default()).unwrap();
    let first = raw_exchange(server.addr(), &request("again", SMALL));
    let second = raw_exchange(server.addr(), &request("again", SMALL));
    assert_eq!(first.len(), second.len());
    for ((kind_a, bytes_a), (kind_b, bytes_b)) in first.iter().zip(&second) {
        assert_eq!(kind_a, kind_b);
        assert_eq!(
            bytes_a, bytes_b,
            "repeat stream diverged in a {kind_a:?} frame"
        );
    }
    // Sanity: 1 ACCEPTED + 4 CELL + 1 DONE.
    assert_eq!(first.len(), 6);
    server.shutdown();
}

#[test]
fn killed_sweep_resumes_without_resolving_finished_cells() {
    let dir = temp_dir("resume");
    let config = || ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // First run: read one streamed cell, then kill the server mid-sweep.
    let server = SweepServer::start(config()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let mut stream = client.submit(&request("long-haul", SLOW)).unwrap();
    assert_eq!(stream.accepted().cells, 8);
    let first = stream.next_cell().unwrap().expect("first cell streams");
    assert_eq!(first.key().index(), 0);
    server.shutdown();
    // The interrupted stream surfaces the abort (or the dead socket).
    loop {
        match stream.next_cell() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("sweep claimed completion after the kill"),
            Err(ServeError::Remote(reason)) => {
                assert!(reason.contains("interrupted"), "{reason}");
                break;
            }
            Err(_) => break,
        }
    }

    // Second run, same checkpoint dir: journalled cells replay, the rest
    // solve, and the stitched report is bit-identical to a fresh one.
    let server = SweepServer::start(config()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let stream = client.submit(&request("long-haul", SLOW)).unwrap();
    let resumed = stream.accepted().resumed;
    assert!(resumed >= 1, "at least the streamed cell was journalled");
    assert!(resumed < 8, "the kill left work to do");
    let report = stream.into_report().unwrap();
    assert_eq!(report, expected_report(SLOW));

    // The journal is gone after DONE: a third submission starts fresh.
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let stream = client.submit(&request("long-haul", SLOW)).unwrap();
    assert_eq!(stream.accepted().resumed, 0);
    drop(stream);
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_at_exact_record_boundary_resumes_every_journalled_cell() {
    let dir = temp_dir("boundary");
    let config = || ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // Interrupt a sweep so a journal with at least one cell survives.
    let server = SweepServer::start(config()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let mut stream = client.submit(&request("boundary", SLOW)).unwrap();
    let _ = stream.next_cell().unwrap().expect("first cell streams");
    server.shutdown();
    drop(stream);
    drop(client);

    // Simulate a kill at the exact record boundary: the final append fully
    // landed but its trailing newline did not.  Dropping that last byte must
    // not cost the finished cell on resume.
    let path = dir.join("boundary.ckpt");
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.last(), Some(&b'\n'), "journal ends on a boundary");
    let journalled = bytes
        .split(|&b| b == b'\n')
        .filter(|line| line.starts_with(b"cell "))
        .count();
    assert!(
        journalled >= 1,
        "the kill left at least one journalled cell"
    );
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();

    // Resume: every journalled cell replays, including the unterminated one.
    let server = SweepServer::start(config()).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let stream = client.submit(&request("boundary", SLOW)).unwrap();
    assert_eq!(
        stream.accepted().resumed,
        journalled,
        "the complete-but-unterminated final record must not be re-solved"
    );
    let report = stream.into_report().unwrap();
    assert_eq!(report, expected_report(SLOW));
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_mismatch_is_rejected_not_mixed() {
    let dir = temp_dir("mismatch");
    let config = ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        workers: 1,
        ..ServerConfig::default()
    };
    let server = SweepServer::start(config).unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    // Interrupt a sweep so its journal survives.
    let mut stream = client.submit(&request("pinned", SLOW)).unwrap();
    let _ = stream.next_cell().unwrap();
    drop(stream);
    drop(client);
    // Resubmitting the id with a DIFFERENT grid must be refused.
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let outcome = loop {
        match client.submit(&request("pinned", SMALL)) {
            Err(ServeError::Rejected(rejected)) if rejected.reason.contains("already running") => {
                std::thread::sleep(Duration::from_millis(50));
            }
            other => break other,
        }
    };
    match outcome {
        Err(ServeError::Rejected(rejected)) => {
            assert!(
                rejected.reason.contains("checkpoint mismatch"),
                "{}",
                rejected.reason
            );
        }
        other => panic!("expected a checkpoint-mismatch rejection, got {other:?}"),
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn framing_edge_cases_do_not_kill_the_server() {
    let server = SweepServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Truncated frame: half a length prefix, then disconnect.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&[0, 0]).unwrap();
    drop(stream);

    // Oversized length prefix: the server answers ERROR and closes.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    match read_frame(&mut stream, MAX_FRAME).unwrap() {
        ReadOutcome::Frame(frame) => assert_eq!(frame.kind, FrameKind::Error),
        other => panic!("expected an ERROR frame, got {other:?}"),
    }
    drop(stream);

    // Unknown kind and an empty frame: sync is intact, so the connection
    // keeps working — the same socket then completes a real sweep.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(&2_u32.to_be_bytes()).unwrap();
    stream.write_all(&[0x42, b'x']).unwrap();
    match read_frame(&mut stream, MAX_FRAME).unwrap() {
        ReadOutcome::Frame(frame) => assert_eq!(frame.kind, FrameKind::Error),
        other => panic!("expected an ERROR frame, got {other:?}"),
    }
    stream.write_all(&0_u32.to_be_bytes()).unwrap();
    match read_frame(&mut stream, MAX_FRAME).unwrap() {
        ReadOutcome::Frame(frame) => assert_eq!(frame.kind, FrameKind::Error),
        other => panic!("expected an ERROR frame, got {other:?}"),
    }
    let payload = request("after-garbage", SMALL).encode().unwrap();
    write_frame(
        &mut stream,
        FrameKind::Submit,
        payload.as_bytes(),
        MAX_FRAME,
    )
    .unwrap();
    let mut saw_done = false;
    loop {
        match read_frame(&mut stream, MAX_FRAME).unwrap() {
            ReadOutcome::Frame(frame) => {
                assert!(!matches!(
                    frame.kind,
                    FrameKind::Rejected | FrameKind::Error
                ));
                if frame.kind == FrameKind::Done {
                    saw_done = true;
                    break;
                }
            }
            ReadOutcome::Idle => {}
            ReadOutcome::Eof => break,
        }
    }
    assert!(saw_done, "the post-garbage sweep completed");
    server.shutdown();
}

#[test]
fn concurrent_clients_get_their_own_disjoint_results() {
    let server = SweepServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let specs = [
        "modules=6|seeds=1,2,3|drive=city:10|lineup=paper-fixed:0.002",
        "modules=9|seeds=4,5,6|drive=city:14|lineup=paper-fixed:0.002",
    ];
    let handles: Vec<_> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                let stream = client.submit(&request(&format!("side-{i}"), spec)).unwrap();
                stream.into_report().unwrap()
            })
        })
        .collect();
    let reports: Vec<SweepReport> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for (spec, report) in specs.iter().zip(&reports) {
        assert_eq!(report, &expected_report(spec), "{spec}");
    }
    // Disjointness: every cell in each stream belongs to its own grid.
    assert!(reports[0]
        .cells()
        .iter()
        .all(|c| c.key().module_count() == 6));
    assert!(reports[1]
        .cells()
        .iter()
        .all(|c| c.key().module_count() == 9));
    server.shutdown();
}

#[test]
fn over_budget_requests_are_rejected_up_front() {
    let server = SweepServer::start(ServerConfig {
        max_cells: 2,
        max_steps: 500,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    // 4 cells > max_cells.
    match client.submit(&request("wide", SMALL)) {
        Err(ServeError::Rejected(rejected)) => {
            assert!(rejected.reason.contains("budget"), "{}", rejected.reason);
        }
        other => panic!("expected a budget rejection, got {other:?}"),
    }
    // 2 cells but 2 × 4 schemes × 100 s = 800 steps > max_steps.
    let deep = "modules=6|seeds=1,2|drive=city:100|lineup=paper-fixed:0.002";
    match client.submit(&request("deep", deep)) {
        Err(ServeError::Rejected(rejected)) => {
            assert!(rejected.reason.contains("budget"), "{}", rejected.reason);
        }
        other => panic!("expected a budget rejection, got {other:?}"),
    }
    // Within budget still works: rejections cost nothing.
    let ok = "modules=6|seeds=1|drive=city:10|lineup=paper-fixed:0.002";
    let report = client
        .submit(&request("fits", ok))
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(report.cells().len(), 1);
    server.shutdown();
}

#[test]
fn busy_server_rejects_rather_than_queueing() {
    let server = SweepServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut first = ServeClient::connect(server.addr()).unwrap();
    let stream = first.submit(&request("occupant", SLOW)).unwrap();
    // While the occupant runs, a second sweep is refused, not queued.
    let mut second = ServeClient::connect(server.addr()).unwrap();
    match second.submit(&request("latecomer", SMALL)) {
        Err(ServeError::Rejected(rejected)) => {
            assert!(rejected.reason.contains("busy"), "{}", rejected.reason);
        }
        other => panic!("expected a busy rejection, got {other:?}"),
    }
    // The occupant is unharmed and the slot frees afterwards.
    let report = stream.into_report().unwrap();
    assert_eq!(report.cells().len(), 8);
    let report = second
        .submit(&request("latecomer", SMALL))
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(report, expected_report(SMALL));
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_cancels_and_keeps_the_checkpoint() {
    let dir = temp_dir("disconnect");
    let server = SweepServer::start(ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let mut stream = client.submit(&request("walkaway", SLOW)).unwrap();
    let _ = stream.next_cell().unwrap().expect("first cell streams");
    // Vanish mid-stream: the server notices on its next write, cancels the
    // request and keeps the journal.
    drop(stream);
    drop(client);
    // Resubmit until the orphaned request has been reaped, then resume.
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let stream = loop {
        match client.submit(&request("walkaway", SLOW)) {
            Ok(stream) => break stream,
            Err(ServeError::Rejected(rejected)) if rejected.reason.contains("already running") => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(err) => panic!("unexpected submit failure: {err}"),
        }
    };
    assert!(stream.accepted().resumed >= 1);
    let report = stream.into_report().unwrap();
    assert_eq!(report, expected_report(SLOW));
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cancel_from_a_second_connection_stops_the_sweep() {
    let server = SweepServer::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut submitter = ServeClient::connect(server.addr()).unwrap();
    let mut stream = submitter.submit(&request("doomed", SLOW)).unwrap();
    let mut controller = ServeClient::connect(server.addr()).unwrap();
    // Unknown ids are reported, known ids are cancelled.
    match controller.cancel("no-such-id") {
        Err(ServeError::Remote(reason)) => assert!(reason.contains("no active"), "{reason}"),
        other => panic!("expected a remote error, got {other:?}"),
    }
    controller.cancel("doomed").unwrap();
    let aborted = loop {
        match stream.next_cell() {
            Ok(Some(_)) => {}
            Ok(None) => break false,
            Err(ServeError::Remote(reason)) => {
                assert!(reason.contains("interrupted"), "{reason}");
                break true;
            }
            Err(err) => panic!("unexpected stream failure: {err}"),
        }
    };
    assert!(aborted, "the cancelled sweep must not run to completion");
    server.shutdown();
}
