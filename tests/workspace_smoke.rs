//! Workspace-wiring smoke test: instantiates one public type from each of
//! the seven member crates *through the `lightator_suite` re-exports*, so
//! any future manifest regression (a dropped `path` dependency, a renamed
//! crate, a broken re-export) fails loudly here rather than deep inside an
//! integration test.

use lightator_suite::baselines::electronic::ElectronicBaseline;
use lightator_suite::bench::harness;
use lightator_suite::core::config::LightatorConfig;
use lightator_suite::nn::spec::NetworkSpec;
use lightator_suite::photonics::units::Wavelength;
use lightator_suite::sensor::frame::RgbFrame;
use lightator_suite::serve::ServeConfig;

/// One value of one public type per crate, reached only via the umbrella.
#[test]
fn every_crate_is_reachable_through_the_umbrella() {
    // lightator-photonics
    let lambda = Wavelength::from_nm(1550.0);
    assert!((lambda.nm() - 1550.0).abs() < 1e-9);

    // lightator-sensor
    let frame = RgbFrame::filled(8, 8, [0.5, 0.5, 0.5]).expect("valid frame");
    assert_eq!((frame.width(), frame.height()), (8, 8));

    // lightator-nn
    let lenet = NetworkSpec::lenet();
    assert!(lenet.total_macs() > 0);

    // lightator-core
    let config = LightatorConfig::paper();
    assert_eq!(config.geometry.mrs_per_arm, 9);

    // lightator-baselines
    let eyeriss = ElectronicBaseline::eyeriss();
    assert!(eyeriss.execution_time(&lenet).ms() > 0.0);

    // lightator-bench
    let variants = harness::lightator_variants();
    assert!(!variants.is_empty(), "paper precision variants missing");

    // lightator-serve
    let serve = ServeConfig::default();
    assert!(serve.validate().is_ok());
}

/// The umbrella's module aliases stay aligned with the underlying crate
/// names (`lightator_suite::core` really is `lightator_core`, etc.).
#[test]
fn umbrella_aliases_point_at_the_member_crates() {
    // Same type through both paths: compiles only if the re-export is the
    // genuine crate rather than a shadowing module.
    let via_suite: lightator_suite::core::config::LightatorConfig = LightatorConfig::paper();
    let sim = harness::simulator().expect("bench harness builds its simulator");
    let report = sim
        .simulate(
            &NetworkSpec::lenet(),
            lightator_suite::nn::quant::PrecisionSchedule::Uniform(
                lightator_suite::nn::quant::Precision::w4a4(),
            ),
        )
        .expect("simulation runs");
    assert!(report.kfps_per_watt() > 0.0);
    assert_eq!(via_suite.geometry.mrs_per_arm, 9);
}

/// The facade types are re-exported at the top of the umbrella, so the
/// quickstart path is one `use` away.
#[test]
fn facade_is_reachable_from_the_umbrella_root() {
    let platform: lightator_suite::Platform = lightator_suite::Platform::builder()
        .sensor_resolution(8, 8)
        .build()
        .expect("platform");
    let mut session = platform
        .session(lightator_suite::Workload::Acquire)
        .expect("session");
    let report = session
        .run(&RgbFrame::filled(8, 8, [0.5, 0.5, 0.5]).expect("scene"))
        .expect("run");
    assert_eq!(report.workload, "acquire");
}

/// The serving layer is one `use` away too: a pooled server built on the
/// facade serves a frame end to end through the umbrella re-exports.
#[test]
fn serving_is_reachable_from_the_umbrella_root() {
    let platform = lightator_suite::Platform::builder()
        .sensor_resolution(8, 8)
        .build()
        .expect("platform");
    let server = lightator_suite::Server::builder(platform)
        .shards(2)
        .workload(lightator_suite::Workload::Acquire)
        .build()
        .expect("server");
    let report = server
        .run(lightator_suite::Request::Acquire {
            frame: RgbFrame::filled(8, 8, [0.5, 0.5, 0.5]).expect("scene"),
        })
        .expect("served");
    assert_eq!(report.workload, "acquire");
    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 1);
}
