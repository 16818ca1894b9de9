//! Integration tests of the streaming session API: lockstep comparison
//! equivalence with sequential session runs, the shared-thermal-trace solve
//! count, and the long-period invocation regression.

use teg_harvest::reconfig::{Dnor, Inor, InorConfig, Reconfigurer, SchemeSpec};
use teg_harvest::sim::{Comparison, RuntimePolicy, Scenario, SimSession};
use teg_harvest::units::Seconds;

fn scenario(modules: usize, seconds: usize, seed: u64) -> Scenario {
    Scenario::builder()
        .module_count(modules)
        .duration_seconds(seconds)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

#[test]
fn comparison_matches_four_sequential_engine_runs() {
    // Under a fixed runtime charge and DNOR's assumed computation time no
    // wall clock reaches any result, so lockstep and sequential runs must
    // agree bit for bit, overhead and net energy included.
    let modules = 24;
    let s = scenario(modules, 50, 11);
    let policy = RuntimePolicy::Fixed(Seconds::new(0.002));
    let specs = [
        SchemeSpec::dnor_deterministic(Seconds::new(0.002)),
        SchemeSpec::inor(),
        SchemeSpec::ehtr(),
        SchemeSpec::baseline_square_grid(modules),
    ];

    let lockstep = Comparison::from_specs(&s, &specs)
        .runtime_policy(policy)
        .run()
        .expect("comparison");
    assert_eq!(lockstep.reports().len(), specs.len());

    for (spec, lock) in specs.iter().zip(lockstep.reports()) {
        let mut scheme = spec.build();
        let sequential = SimSession::new(&s, scheme.as_mut())
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
