//! Integration tests of the streaming session API: lockstep comparison
//! equivalence with sequential session runs (healthy and faulted), the shared-thermal-trace solve
//! count, and the long-period invocation regression.

use teg_harvest::array::SwitchStuck;
use teg_harvest::reconfig::{Dnor, Inor, InorConfig, Reconfigurer, SchemeSpec, SensorFault};
use teg_harvest::sim::{
    Comparison, FaultAction, FaultEvent, FaultPlan, FaultSeverity, RuntimePolicy, Scenario,
    SimSession, SimulationReport,
};
use teg_harvest::units::Seconds;

fn scenario(modules: usize, seconds: usize, seed: u64) -> Scenario {
    Scenario::builder()
        .module_count(modules)
        .duration_seconds(seconds)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

/// Runs `specs` once in lockstep and once as sequential standalone sessions
/// under a fixed runtime charge, and asserts the two agree bit for bit:
/// whole-report equality plus `to_bits` on every record's net power and
/// overhead.  Returns the lockstep reports.
fn assert_lockstep_matches_sequential(s: &Scenario, specs: &[SchemeSpec]) -> Vec<SimulationReport> {
    let policy = RuntimePolicy::Fixed(Seconds::new(0.002));
    let lockstep = Comparison::from_specs(s, specs)
        .runtime_policy(policy)
        .run()
        .expect("comparison");
    assert_eq!(lockstep.reports().len(), specs.len());

    for (spec, lock) in specs.iter().zip(lockstep.reports()) {
        let mut scheme = spec.build();
        let sequential = SimSession::new(s, scheme.as_mut())
            .expect("session")
            .with_runtime_policy(policy)
            .run()
            .expect("run");
        assert_eq!(lock, &sequential, "{}", sequential.scheme());
        for (a, b) in lock.records().iter().zip(sequential.records()) {
            assert_eq!(
                a.net_power().value().to_bits(),
                b.net_power().value().to_bits(),
                "{} net power at t={}",
                sequential.scheme(),
                a.time()
            );
            assert_eq!(
                a.overhead_energy().value().to_bits(),
                b.overhead_energy().value().to_bits(),
                "{} overhead at t={}",
                sequential.scheme(),
                a.time()
            );
        }
    }
    lockstep.reports().to_vec()
}

#[test]
fn comparison_matches_four_sequential_engine_runs() {
    // Under a fixed runtime charge, which DNOR's gate weighs too, no wall
    // clock reaches any result, so lockstep and sequential runs must
    // agree bit for bit, overhead and net energy included.
    let modules = 24;
    let s = scenario(modules, 50, 11);
    let specs = [
        SchemeSpec::dnor(),
        SchemeSpec::inor(),
        SchemeSpec::ehtr(),
        SchemeSpec::baseline_square_grid(modules),
    ];
    assert_lockstep_matches_sequential(&s, &specs);
}

#[test]
fn faulted_comparison_matches_four_sequential_engine_runs() {
    // The faulted twin: module, switch and sensor faults (seeded noise and
    // stuck readings included) fire mid-drive, so the lockstep field shares
    // a degraded plant whose fault state, sensor view and realised wiring
    // must reach every scheme exactly as a standalone session sees them.
    let modules = 48;
    let seconds = 120;
    let random = FaultPlan::random(modules, seconds, FaultSeverity::severe(), 5);
    let mut events = random.events().to_vec();
    events.extend([
        FaultEvent::new(
            10,
            FaultAction::Sensor {
                module: 3,
                fault: SensorFault::Dropout,
            },
        ),
        FaultEvent::new(
            20,
            FaultAction::Sensor {
                module: 17,
                fault: SensorFault::Stuck,
            },
        ),
        FaultEvent::new(
            25,
            FaultAction::Sensor {
                module: 30,
                fault: SensorFault::Noisy { sigma: 2.5 },
            },
        ),
        FaultEvent::new(
            30,
            FaultAction::Switch {
                link: 11,
                stuck: SwitchStuck::Open,
            },
        ),
        FaultEvent::new(
            40,
            FaultAction::Switch {
                link: 26,
                stuck: SwitchStuck::Closed,
            },
        ),
        FaultEvent::new(90, FaultAction::SensorRepair { module: 3 }),
    ]);
    let plan = FaultPlan::new(events).with_sensor_seed(random.sensor_seed());
    let fired = plan.len();
    let s = Scenario::builder()
        .module_count(modules)
        .duration_seconds(seconds)
        .seed(11)
        .fault_plan(plan)
        .build()
        .expect("valid faulted scenario");
    let specs = [
        SchemeSpec::dnor(),
        SchemeSpec::inor(),
        SchemeSpec::ehtr(),
        SchemeSpec::baseline_square_grid(modules),
    ];
    let lockstep = assert_lockstep_matches_sequential(&s, &specs);

    // Per-scheme fault accounting: the lockstep records carry the same
    // faulted-step and fired-event counts a standalone session reports.
    for (spec, lock) in specs.iter().zip(&lockstep) {
        let mut scheme = spec.build();
        let mut session = SimSession::new(&s, scheme.as_mut())
            .expect("session")
            .with_runtime_policy(RuntimePolicy::Fixed(Seconds::new(0.002)));
        while session.step().expect("step").is_some() {}
        let summary = session.summary();
        let faulted_steps = lock
            .records()
            .iter()
            .filter(|r| r.faults_active() > 0)
            .count();
        let fault_events: usize = lock.records().iter().map(|r| r.fault_events()).sum();
        assert_eq!(faulted_steps, summary.faulted_steps(), "{}", lock.scheme());
        assert_eq!(fault_events, summary.fault_events(), "{}", lock.scheme());
        assert_eq!(fault_events, fired, "{}", lock.scheme());
        assert!(faulted_steps > 0, "{}", lock.scheme());
    }
}

#[test]
fn comparison_solves_the_thermal_model_once_per_sample() {
    let s = scenario(16, 40, 7);
    assert_eq!(s.thermal_solve_count(), 0);
    let report = Comparison::paper_schemes(&s).run().expect("comparison");
    assert_eq!(report.reports().len(), 4);
    // Four schemes over a 40-sample cycle: exactly 40 radiator solves, not
    // 160 — the acceptance criterion of the streaming redesign.
    assert_eq!(s.thermal_solve_count(), 40);
    // Sequential session runs over the same scenario reuse the cached trace.
    SimSession::new(&s, &mut Inor::default())
        .and_then(SimSession::run)
        .expect("INOR");
    assert_eq!(s.thermal_solve_count(), 40);
}

#[test]
fn long_period_schemes_are_invoked_at_their_period() {
    // Regression test for the pre-session engine, which clamped
    // `invocations_per_step` to at least one per step and therefore invoked
    // a 4-second-period scheme four times too often.
    let s = scenario(10, 40, 5);
    let config = InorConfig::new(*s.charger(), 0.9, Seconds::new(4.0)).expect("config");
    let report = SimSession::new(&s, &mut Inor::new(config))
        .and_then(SimSession::run)
        .expect("run");
    // One invocation at t = 0 plus one every 4 s: 10 over 40 seconds.
    assert_eq!(report.runtime().invocations(), 10);
    // The sub-second default period still invokes twice per second.
    let s = scenario(10, 40, 5);
    let report = SimSession::new(&s, &mut Inor::default())
        .and_then(SimSession::run)
        .expect("run");
    assert_eq!(report.runtime().invocations(), 80);
}

#[test]
fn session_streaming_matches_engine_report() {
    let s = scenario(18, 35, 13);
    let mut streamed = Vec::new();
    let mut dnor = Dnor::default();
    let mut session = SimSession::new(&s, &mut dnor).expect("session");
    while let Some(record) = session.step().expect("step") {
        streamed.push(record);
    }
    let summary = session.summary();
    drop(session);

    let report = SimSession::new(&s, &mut Dnor::default())
        .and_then(SimSession::run)
        .expect("run");
    assert_eq!(streamed.len(), report.records().len());
    assert_eq!(summary.switch_count(), report.switch_count());
    assert_eq!(summary.gross_energy(), report.gross_energy());
    for (streamed, reported) in streamed.iter().zip(report.records()) {
        assert_eq!(streamed.time(), reported.time());
        assert_eq!(streamed.array_power(), reported.array_power());
        assert_eq!(streamed.group_count(), reported.group_count());
        assert_eq!(streamed.switched(), reported.switched());
    }
}

#[test]
fn bounded_telemetry_does_not_change_scheme_quality() {
    // The windowed history must preserve the paper's qualitative ordering:
    // DNOR still beats the baseline and still switches rarely.
    let s = scenario(30, 60, 21);
    let report = Comparison::paper_schemes(&s).run().expect("comparison");
    let dnor = report.report("DNOR").expect("ran");
    let inor = report.report("INOR").expect("ran");
    let baseline = report.report("Baseline").expect("ran");
    assert!(dnor.net_energy().value() > baseline.net_energy().value());
    assert!(dnor.overhead_energy().value() < 0.25 * inor.overhead_energy().value());
    assert!(dnor.net_energy().value() >= 0.98 * inor.net_energy().value());
    // And the DNOR lookback really is bounded.
    assert!(Reconfigurer::lookback(&Dnor::default()) < 60);
}
