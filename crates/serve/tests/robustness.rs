//! Fault-tolerance tests of the sweep service: supervised workers,
//! deadlines, connection hardening, the resilient client and the seeded
//! chaos proxy.
//!
//! The contract under test extends the determinism contract of
//! `tests/service.rs`: no injected fault — a killed worker, a flapping
//! connection, a corrupted or truncated frame, a missed deadline — may
//! change a single byte of the sweep's final assembled stream.  Faults cost
//! retries and wall-clock time, never results.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use teg_serve::{
    read_frame, write_frame, ChaosPlan, ChaosProxy, FrameKind, ReadOutcome, ResilientClient,
    RetryPolicy, ServeClient, ServeError, ServerConfig, StatsReply, SubmitRequest, SweepServer,
    MAX_FRAME,
};
use teg_sim::{GridSpec, RuntimePolicy, SweepReport, SweepRunner};
use teg_units::Seconds;

const POLICY: RuntimePolicy = RuntimePolicy::Fixed(Seconds::new(0.002));

/// A small deterministic sweep: 4 cells, 4 schemes each.
const SMALL: &str = "modules=6,8|seeds=1,2|drive=city:12|lineup=paper-fixed:0.002";

/// A sweep slow enough that interrupting it mid-stream reliably leaves
/// later cells unsolved (same sizing rationale as `tests/service.rs`).
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
        "teg-serve-robust-{}-{}-{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Polls STATS on a fresh connection until `predicate` holds, panicking
/// after `budget`.
fn await_stats(
    addr: std::net::SocketAddr,
    budget: Duration,
    what: &str,
    predicate: impl Fn(&StatsReply) -> bool,
) -> StatsReply {
    let deadline = Instant::now() + budget;
    loop {
        let stats = ServeClient::connect(addr).unwrap().stats().unwrap();
        if predicate(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn deadline_exceeded_aborts_with_journal_intact_for_resume() {
    let dir = temp_dir("deadline");
    let server = SweepServer::start(ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        // Far below the sweep's wall clock in either build profile (release
        // solves ~1 cell per 12 ms), so the deadline always fires mid-sweep.
        max_request_secs: Some(0.02),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let mut stream = client.submit(&request("overdue", SLOW)).unwrap();
    let reason = loop {
        match stream.next_cell() {
            Ok(Some(_)) => {}
            Ok(None) => panic!("an 8×64-module sweep finished inside a 20 ms deadline"),
            Err(ServeError::Remote(reason)) => break reason,
            Err(err) => panic!("expected a remote deadline error, got {err}"),
        }
    };
    assert!(reason.contains("deadline exceeded"), "{reason}");
    assert!(reason.contains("journal intact"), "{reason}");
    // The journal survived the abort.
    assert!(dir.join("overdue.ckpt").exists());
    drop(stream);
    drop(client);
    server.shutdown();

    // A deadline-free server over the same journal resumes and finishes
    // bit-identically to a fresh run.
    let server = SweepServer::start(ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let stream = client.submit(&request("overdue", SLOW)).unwrap();
    let report = stream.into_report().unwrap();
    assert_eq!(report, expected_report(SLOW));
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn idle_connections_are_told_why_and_closed() {
    let server = SweepServer::start(ServerConfig {
        idle_timeout_secs: Some(0.3),
        ..ServerConfig::default()
    })
    .unwrap();
    // Say nothing; the server must answer with a named ERROR, then close.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    match read_frame(&mut stream, MAX_FRAME).unwrap() {
        ReadOutcome::Frame(frame) => {
            assert_eq!(frame.kind, FrameKind::Error);
            assert!(frame.text().unwrap().contains("idle timeout"));
        }
        other => panic!("expected an idle-timeout ERROR frame, got {other:?}"),
    }
    assert!(matches!(
        read_frame(&mut stream, MAX_FRAME).unwrap(),
        ReadOutcome::Eof
    ));
    // An active client on the same server is never idled out mid-exchange.
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let report = client
        .submit(&request("prompt", SMALL))
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(report, expected_report(SMALL));
    server.shutdown();
}

#[test]
fn connection_cap_answers_busy_instead_of_spawning_threads() {
    let server = SweepServer::start(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // Occupy the only slot and prove the handler is live.
    let mut occupant = ServeClient::connect(addr).unwrap();
    let stats = occupant.stats().unwrap();
    assert_eq!(stats.connections, 1);
    // The next accept is answered with a busy ERROR and closed.
    let mut extra = TcpStream::connect(addr).unwrap();
    match read_frame(&mut extra, MAX_FRAME).unwrap() {
        ReadOutcome::Frame(frame) => {
            assert_eq!(frame.kind, FrameKind::Error);
            assert!(frame.text().unwrap().contains("busy"), "{frame:?}");
        }
        other => panic!("expected a busy ERROR frame, got {other:?}"),
    }
    assert!(matches!(
        read_frame(&mut extra, MAX_FRAME).unwrap(),
        ReadOutcome::Eof
    ));
    let stats = occupant.stats().unwrap();
    assert!(stats.connections_rejected >= 1);
    // Freeing the slot re-opens the door.
    drop(occupant);
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        if let Ok(stats) = ServeClient::connect(addr).and_then(|mut c| c.stats()) {
            break stats;
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(stats.connections, 1);
    server.shutdown();
}

#[test]
fn poisoned_workers_are_respawned_and_the_pool_stays_functional() {
    let server = SweepServer::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    assert_eq!(
        ServeClient::connect(addr)
            .unwrap()
            .stats()
            .unwrap()
            .workers_respawned,
        0
    );
    // Kill both workers, one after the other.
    server.poison_worker();
    await_stats(addr, Duration::from_secs(10), "first respawn", |s| {
        s.workers_respawned == 1
    });
    server.poison_worker();
    await_stats(addr, Duration::from_secs(10), "second respawn", |s| {
        s.workers_respawned == 2
    });
    // The pool is back at full strength: a sweep still completes
    // bit-identically.
    let report = ServeClient::connect(addr)
        .unwrap()
        .submit(&request("survivor", SMALL))
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(report, expected_report(SMALL));
    server.shutdown();
}

#[test]
fn disconnect_purges_queued_work_and_never_leaves_a_stale_journal() {
    let dir = temp_dir("purge");
    let server = SweepServer::start(ServerConfig {
        workers: 1,
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut client = ServeClient::connect(addr).unwrap();
    let mut stream = client.submit(&request("ghost", SLOW)).unwrap();
    let _ = stream.next_cell().unwrap().expect("first cell streams");
    // Vanish mid-stream.  The handler's admission teardown must cancel the
    // request AND purge its queued cells, so the lone worker stops burning
    // time on a sweep nobody is reading.
    drop(stream);
    drop(client);
    let stats = await_stats(addr, Duration::from_secs(20), "orphan reaped", |s| {
        s.active == 0
    });
    assert_eq!(
        stats.queued_cells, 0,
        "cancelled request left jobs in the queue"
    );
    assert_eq!(stats.completed_requests, 0);
    // Whatever journal survives must hold real progress — at least one cell
    // record — never a stale header-only file.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let bytes = std::fs::read(entry.unwrap().path()).unwrap();
        let cells = bytes
            .split(|&b| b == b'\n')
            .filter(|line| line.starts_with(b"cell "))
            .count();
        assert!(cells >= 1, "stale journal with no cell records");
    }
    // The freed worker immediately serves the next sweep.
    let report = ServeClient::connect(addr)
        .unwrap()
        .submit(&request("next-up", SMALL))
        .unwrap()
        .into_report()
        .unwrap();
    assert_eq!(report, expected_report(SMALL));
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stats_counters_stay_consistent_under_concurrent_load() {
    let server = SweepServer::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let specs = [
        "modules=6|seeds=1,2|drive=city:10|lineup=paper-fixed:0.002",
        "modules=8|seeds=3,4|drive=city:12|lineup=paper-fixed:0.002",
        "modules=9|seeds=5,6|drive=city:14|lineup=paper-fixed:0.002",
    ];
    std::thread::scope(|scope| {
        let sweeps: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(lane, &spec)| {
                scope.spawn(move || {
                    let mut client = ServeClient::connect(addr).unwrap();
                    let id = format!("load-{lane}");
                    client
                        .submit(&request(&id, spec))
                        .unwrap()
                        .into_report()
                        .unwrap()
                })
            })
            .collect();
        // Sample the counters while the sweeps run: gauges must stay within
        // their admission bounds at every instant.
        for _ in 0..20 {
            let stats = ServeClient::connect(addr).unwrap().stats().unwrap();
            assert!(
                stats.active <= 4,
                "active {} over queue capacity",
                stats.active
            );
            assert!(stats.completed_requests <= 3);
            assert_eq!(stats.workers_respawned, 0);
            assert_eq!(stats.connections_rejected, 0);
            std::thread::sleep(Duration::from_millis(10));
        }
        for (spec, sweep) in specs.iter().zip(sweeps) {
            assert_eq!(sweep.join().unwrap(), expected_report(spec), "{spec}");
        }
    });
    // At quiescence every gauge returns to zero and every total adds up.
    let stats = await_stats(addr, Duration::from_secs(10), "quiescence", |s| {
        s.active == 0 && s.queued_cells == 0 && s.connections == 1
    });
    assert_eq!(stats.completed_requests, 3);
    assert_eq!(stats.workers_respawned, 0);
    // Each grid has 2 unique thermal keys, and the cache's in-flight
    // markers solve each exactly once however the workers interleave.
    assert_eq!(stats.cache_misses, 6);
    // The retired planner counters stay at zero.
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
fn benign_chaos_proxy_is_byte_transparent() {
    let server = SweepServer::start(ServerConfig::default()).unwrap();
    let proxy = ChaosProxy::start(server.addr(), ChaosPlan::benign(7)).unwrap();
    let direct = raw_exchange(server.addr(), &request("clear", SMALL));
    let proxied = raw_exchange(proxy.addr(), &request("clear", SMALL));
    assert_eq!(direct, proxied, "a fault-free proxy must not alter a byte");
    assert!(proxy.stats().frames() > direct.len());
    assert_eq!(proxy.stats().disruptions(), 0);
    proxy.stop();
    server.shutdown();
}

#[test]
fn resilient_client_survives_seeded_chaos_byte_identically() {
    let dir = temp_dir("chaos");
    let server = SweepServer::start(ServerConfig {
        workers: 2,
        checkpoint_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    // Undisturbed baseline first; same id, so the DONE payloads align (the
    // baseline's journal is deleted at DONE, freeing the id's checkpoint).
    let baseline = ResilientClient::new(server.addr().to_string())
        .run(&request("stormy", SMALL))
        .unwrap();
    assert_eq!(baseline.attempts(), 1);

    // The soak's third session seed: known to inject kills, truncations and
    // corruptions (the `FaultSchedule` is a pure function of the seed, so
    // this stays true forever).
    let seed = 0xC4A0_5EEDu64.wrapping_add(2);
    let proxy = ChaosProxy::start(
        server.addr(),
        ChaosPlan {
            seed,
            ..ChaosPlan::default()
        },
    )
    .unwrap();
    let stormy = ResilientClient::new(proxy.addr().to_string())
        .retry_policy(RetryPolicy {
            max_attempts: 64,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(250),
            stall_timeout: Duration::from_secs(5),
            seed,
        })
        .run(&request("stormy", SMALL))
        .unwrap();
    assert!(
        proxy.stats().disruptions() >= 1,
        "the seeded plan injected nothing destructive"
    );
    assert!(
        stormy.attempts() > 1,
        "chaos cost at least one reconnection"
    );
    assert_eq!(
        stormy.canonical_stream(),
        baseline.canonical_stream(),
        "injected faults changed the assembled byte stream"
    );
    let report = stormy.into_report().unwrap();
    assert_eq!(report, expected_report(SMALL));
    proxy.stop();
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resilient_client_rides_out_busy_rejections() {
    let server = SweepServer::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // Occupy the only admission slot with a slow sweep, and wait for its
    // admission so the latecomer cannot take the slot first...
    let (admitted_tx, admitted) = std::sync::mpsc::channel();
    let occupant = std::thread::spawn(move || {
        let mut client = ServeClient::connect(addr).unwrap();
        let stream = client.submit(&request("occupant", SLOW)).unwrap();
        admitted_tx.send(()).unwrap();
        stream.into_report().unwrap()
    });
    admitted.recv().unwrap();
    // ...then let the resilient client retry through the busy window.
    let latecomer = ResilientClient::new(addr.to_string())
        .retry_policy(RetryPolicy {
            max_attempts: 200,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(1),
            stall_timeout: Duration::from_secs(30),
            seed: 11,
        })
        .run(&request("latecomer", SMALL))
        .unwrap();
    assert_eq!(latecomer.into_report().unwrap(), expected_report(SMALL));
    assert_eq!(occupant.join().unwrap(), expected_report(SLOW));
    server.shutdown();
}
