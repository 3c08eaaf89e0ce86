//! Facade-level integration tests: config round-trips through the text
//! format.

use lightator_suite::core::ca::CaConfig;
use lightator_suite::core::platform::{Platform, PlatformConfig};
use lightator_suite::nn::quant::{Precision, PrecisionSchedule};

/// `LightatorConfig`, `OcGeometry`, `CaConfig` and `PrecisionSchedule` all
/// survive a round-trip through the text config format, exactly.
#[test]
fn platform_config_round_trips_through_text() {
    let mut geometry = lightator_suite::core::config::OcGeometry::paper();
    geometry.bank_columns = 4;
    geometry.ca_banks = 2;
    let original = Platform::builder()
        .geometry(geometry)
        .sensor_resolution(48, 48)
        .precision(PrecisionSchedule::Mixed {
            first: Precision::w4a4(),
            rest: Precision::w3a4(),
        })
        .compressive_acquisition(CaConfig {
            pooling_window: 4,
            rgb_to_grayscale: false,
        })
        .seed(1234)
        .build()
        .expect("valid platform")
        .config()
        .clone();

    let text = original.to_text();
    let parsed = PlatformConfig::from_text(&text).expect("parse");
    assert_eq!(parsed, original);
    assert_eq!(parsed.hardware.geometry, original.hardware.geometry);
    assert_eq!(parsed.ca, original.ca);
    assert_eq!(parsed.schedule, original.schedule);

    // A parsed config rebuilds a working platform.
    let rebuilt = Platform::from_config(parsed).expect("rebuild");
    assert_eq!(rebuilt.config(), &original);
}

/// A config with CA disabled keeps the bypass across the round-trip.
#[test]
fn disabled_ca_round_trips_through_text() {
    let original = Platform::builder()
        .without_compressive_acquisition()
        .sensor_resolution(24, 24)
        .build()
        .expect("valid")
        .config()
        .clone();
    let parsed = PlatformConfig::from_text(&original.to_text()).expect("parse");
    assert_eq!(parsed, original);
    assert!(parsed.ca.is_none());
}
