//! Plain-text serialisation of [`PlatformConfig`].
//!
//! The workspace's `serde` derives are forward-compatibility markers (the
//! offline build has no serde runtime), so platform configurations
//! round-trip through a dependency-free `key = value` text format instead:
//! one line per parameter, `#` comments, unknown keys rejected. Keys left
//! out fall back to the paper defaults, so a config file only needs the
//! parameters it changes.
//!
//! ```
//! use lightator_core::platform::{Platform, PlatformConfig};
//!
//! # fn main() -> Result<(), lightator_core::CoreError> {
//! let config = Platform::builder().sensor_resolution(64, 64).build()?.config().clone();
//! let text = config.to_text();
//! assert_eq!(PlatformConfig::from_text(&text)?, config);
//! # Ok(())
//! # }
//! ```

use crate::error::{CoreError, Result};
use crate::platform::{PlatformBuilder, PlatformConfig};
use lightator_nn::quant::PrecisionSchedule;
use std::fmt::Write as _;

/// Writes one typed field as a `key = value` line.
///
/// Shared by every config type that serialises to the text format (the
/// platform config here, the serve config in `lightator-serve`).
pub fn write_line(out: &mut String, key: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "{key} = {value}");
}

/// Builds the [`CoreError::InvalidConfig`] reported for a malformed value of
/// `key` in the text format.
#[must_use]
pub fn malformed_value(key: &str, detail: impl std::fmt::Display) -> CoreError {
    CoreError::invalid_config(
        "config_text",
        f64::NAN,
        format!("malformed value for key `{key}`: {detail}"),
    )
}

/// Parses a `usize` field of the text format.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] naming `key` for non-integer values.
pub fn parse_usize(key: &str, value: &str) -> Result<usize> {
    value
        .parse::<usize>()
        .map_err(|_| malformed_value(key, format!("expected an unsigned integer, got `{value}`")))
}

/// Parses a `u64` field of the text format.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] naming `key` for non-integer values.
pub fn parse_u64(key: &str, value: &str) -> Result<u64> {
    value
        .parse::<u64>()
        .map_err(|_| malformed_value(key, format!("expected an unsigned integer, got `{value}`")))
}

/// Parses an `f64` field of the text format.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] naming `key` for non-numeric values.
pub fn parse_f64(key: &str, value: &str) -> Result<f64> {
    value
        .parse::<f64>()
        .map_err(|_| malformed_value(key, format!("expected a number, got `{value}`")))
}

/// Parses a `bool` field of the text format (`true`/`false` only).
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] naming `key` for anything else.
pub fn parse_bool(key: &str, value: &str) -> Result<bool> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(malformed_value(
            key,
            format!("expected true/false, got `{other}`"),
        )),
    }
}

/// Splits one non-comment line of the text format into `(key, value)`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] when the line has no `=`.
pub fn split_key_value(line: &str) -> Result<(&str, &str)> {
    let (key, value) = line.split_once('=').ok_or_else(|| {
        malformed_value(
            "config_text",
            format!("expected `key = value`, got `{line}`"),
        )
    })?;
    Ok((key.trim(), value.trim()))
}

impl PlatformConfig {
    /// Serialises the configuration to the `key = value` text format.
    ///
    /// Only the parameters the facade exposes are written; the sensor's
    /// pixel and comparator designs always follow the paper defaults.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# Lightator platform configuration\n");

        let g = &self.hardware.geometry;
        write_line(&mut out, "geometry.mrs_per_arm", g.mrs_per_arm);
        write_line(&mut out, "geometry.arms_per_bank", g.arms_per_bank);
        write_line(&mut out, "geometry.bank_columns", g.bank_columns);
        write_line(&mut out, "geometry.bank_rows", g.bank_rows);
        write_line(&mut out, "geometry.ca_banks", g.ca_banks);

        let p = &self.hardware.periphery;
        write_line(&mut out, "periphery.dacs_per_arm", p.dacs_per_arm);
        write_line(&mut out, "periphery.adcs_per_bank", p.adcs_per_bank);
        write_line(&mut out, "periphery.vcsels_per_arm", p.vcsels_per_arm);
        write_line(&mut out, "periphery.crc_units", p.crc_units);
        write_line(&mut out, "periphery.weight_sram_kib", p.weight_sram_kib);
        write_line(
            &mut out,
            "periphery.activation_sram_kib",
            p.activation_sram_kib,
        );

        let w = &self.hardware.power;
        write_line(&mut out, "power.dac_power_mw", w.dac_power_mw);
        write_line(&mut out, "power.adc_power_mw", w.adc_power_mw);
        write_line(&mut out, "power.mr_tuning_power_mw", w.mr_tuning_power_mw);
        write_line(
            &mut out,
            "power.crc_comparator_power_uw",
            w.crc_comparator_power_uw,
        );
        write_line(&mut out, "power.vcsel_power_mw", w.vcsel_power_mw);
        write_line(&mut out, "power.bpd_power_mw", w.bpd_power_mw);
        write_line(&mut out, "power.controller_power_mw", w.controller_power_mw);
        write_line(
            &mut out,
            "power.sram_leakage_per_kib_uw",
            w.sram_leakage_per_kib_uw,
        );
        write_line(&mut out, "power.optical_cycle_ns", w.optical_cycle_ns);
        write_line(&mut out, "power.electronic_cycle_ns", w.electronic_cycle_ns);

        let n = &self.hardware.noise;
        write_line(
            &mut out,
            "noise.vcsel_relative_sigma",
            n.vcsel_relative_sigma,
        );
        write_line(
            &mut out,
            "noise.detector_relative_sigma",
            n.detector_relative_sigma,
        );
        write_line(&mut out, "noise.weight_sigma", n.weight_sigma);
        write_line(&mut out, "noise.apply_crosstalk", n.apply_crosstalk);

        let t = &self.hardware.timing;
        write_line(
            &mut out,
            "timing.weight_reload_cycles_per_bank",
            t.weight_reload_cycles_per_bank,
        );
        write_line(
            &mut out,
            "timing.electronic_post_cycles_per_kilo_output",
            t.electronic_post_cycles_per_kilo_output,
        );
        write_line(
            &mut out,
            "timing.optical_cycles_per_wave",
            t.optical_cycles_per_wave,
        );

        write_line(&mut out, "sensor.height", self.sensor.height);
        write_line(&mut out, "sensor.width", self.sensor.width);

        write_line(&mut out, "ca.enabled", self.ca.is_some());
        if let Some(ca) = &self.ca {
            write_line(&mut out, "ca.pooling_window", ca.pooling_window);
            write_line(&mut out, "ca.rgb_to_grayscale", ca.rgb_to_grayscale);
        }

        write_line(&mut out, "schedule", self.schedule.label());
        write_line(&mut out, "seed", self.seed);
        write_line(&mut out, "workers", self.workers);
        out
    }

    /// Parses the `key = value` text format produced by
    /// [`PlatformConfig::to_text`].
    ///
    /// Missing keys keep their paper defaults; unknown keys and malformed
    /// values are rejected with a [`CoreError::InvalidConfig`] naming the
    /// offending line.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for syntax errors, unknown keys
    /// or unparsable values. The result is *not* re-validated here; pass it
    /// to [`crate::platform::Platform::from_config`] for full validation.
    pub fn from_text(text: &str) -> Result<Self> {
        let mut config = PlatformBuilder::paper().build()?.config().clone();
        // `ca.*` keys may arrive in any order relative to `ca.enabled`.
        let mut ca = config.ca.unwrap_or_default();
        let mut ca_enabled = config.ca.is_some();

        for raw in text.lines() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (key, value) = split_key_value(trimmed)?;
            match key {
                "geometry.mrs_per_arm" => {
                    config.hardware.geometry.mrs_per_arm = parse_usize(key, value)?;
                }
                "geometry.arms_per_bank" => {
                    config.hardware.geometry.arms_per_bank = parse_usize(key, value)?;
                }
                "geometry.bank_columns" => {
                    config.hardware.geometry.bank_columns = parse_usize(key, value)?;
                }
                "geometry.bank_rows" => {
                    config.hardware.geometry.bank_rows = parse_usize(key, value)?;
                }
                "geometry.ca_banks" => {
                    config.hardware.geometry.ca_banks = parse_usize(key, value)?;
                }
                "periphery.dacs_per_arm" => {
                    config.hardware.periphery.dacs_per_arm = parse_usize(key, value)?;
                }
                "periphery.adcs_per_bank" => {
                    config.hardware.periphery.adcs_per_bank = parse_usize(key, value)?;
                }
                "periphery.vcsels_per_arm" => {
                    config.hardware.periphery.vcsels_per_arm = parse_usize(key, value)?;
                }
                "periphery.crc_units" => {
                    config.hardware.periphery.crc_units = parse_usize(key, value)?;
                }
                "periphery.weight_sram_kib" => {
                    config.hardware.periphery.weight_sram_kib = parse_usize(key, value)?;
                }
                "periphery.activation_sram_kib" => {
                    config.hardware.periphery.activation_sram_kib = parse_usize(key, value)?;
                }
                "power.dac_power_mw" => {
                    config.hardware.power.dac_power_mw = parse_f64(key, value)?;
                }
                "power.adc_power_mw" => {
                    config.hardware.power.adc_power_mw = parse_f64(key, value)?;
                }
                "power.mr_tuning_power_mw" => {
                    config.hardware.power.mr_tuning_power_mw = parse_f64(key, value)?;
                }
                "power.crc_comparator_power_uw" => {
                    config.hardware.power.crc_comparator_power_uw = parse_f64(key, value)?;
                }
                "power.vcsel_power_mw" => {
                    config.hardware.power.vcsel_power_mw = parse_f64(key, value)?;
                }
                "power.bpd_power_mw" => {
                    config.hardware.power.bpd_power_mw = parse_f64(key, value)?;
                }
                "power.controller_power_mw" => {
                    config.hardware.power.controller_power_mw = parse_f64(key, value)?;
                }
                "power.sram_leakage_per_kib_uw" => {
                    config.hardware.power.sram_leakage_per_kib_uw = parse_f64(key, value)?;
                }
                "power.optical_cycle_ns" => {
                    config.hardware.power.optical_cycle_ns = parse_f64(key, value)?;
                }
                "power.electronic_cycle_ns" => {
                    config.hardware.power.electronic_cycle_ns = parse_f64(key, value)?;
                }
                "noise.vcsel_relative_sigma" => {
                    config.hardware.noise.vcsel_relative_sigma = parse_f64(key, value)?;
                }
                "noise.detector_relative_sigma" => {
                    config.hardware.noise.detector_relative_sigma = parse_f64(key, value)?;
                }
                "noise.weight_sigma" => {
                    config.hardware.noise.weight_sigma = parse_f64(key, value)?;
                }
                "noise.apply_crosstalk" => {
                    config.hardware.noise.apply_crosstalk = parse_bool(key, value)?;
                }
                "timing.weight_reload_cycles_per_bank" => {
                    config.hardware.timing.weight_reload_cycles_per_bank = parse_usize(key, value)?;
                }
                "timing.electronic_post_cycles_per_kilo_output" => {
                    config
                        .hardware
                        .timing
                        .electronic_post_cycles_per_kilo_output = parse_usize(key, value)?;
                }
                "timing.optical_cycles_per_wave" => {
                    config.hardware.timing.optical_cycles_per_wave = parse_usize(key, value)?;
                }
                "sensor.height" => {
                    config.sensor.height = parse_usize(key, value)?;
                }
                "sensor.width" => {
                    config.sensor.width = parse_usize(key, value)?;
                }
                "ca.enabled" => {
                    ca_enabled = parse_bool(key, value)?;
                }
                "ca.pooling_window" => {
                    ca.pooling_window = parse_usize(key, value)?;
                }
                "ca.rgb_to_grayscale" => {
                    ca.rgb_to_grayscale = parse_bool(key, value)?;
                }
                "schedule" => {
                    config.schedule = PrecisionSchedule::parse_label(value).map_err(|_| {
                        malformed_value(key, format!("unrecognised schedule `{value}`"))
                    })?;
                }
                "seed" => {
                    config.seed = parse_u64(key, value)?;
                }
                "workers" => {
                    config.workers = parse_usize(key, value)?;
                }
                unknown => {
                    return Err(malformed_value(
                        unknown,
                        "unknown configuration key (check for typos)",
                    ));
                }
            }
        }

        config.ca = ca_enabled.then_some(ca);
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CaConfig;
    use crate::platform::{ImageKernel, Platform, Workload};
    use lightator_nn::quant::Precision;

    #[test]
    fn paper_config_round_trips() {
        let config = Platform::paper().expect("paper").config().clone();
        let text = config.to_text();
        assert_eq!(PlatformConfig::from_text(&text).expect("parse"), config);
    }

    #[test]
    fn customised_config_round_trips() {
        let config = Platform::builder()
            .sensor_resolution(64, 64)
            .precision(PrecisionSchedule::Mixed {
                first: Precision::w4a4(),
                rest: Precision::w2a4(),
            })
            .compressive_acquisition(CaConfig {
                pooling_window: 4,
                rgb_to_grayscale: false,
            })
            .seed(99)
            .workers(4)
            .build()
            .expect("valid")
            .config()
            .clone();
        let parsed = PlatformConfig::from_text(&config.to_text()).expect("parse");
        assert_eq!(parsed, config);
    }

    #[test]
    fn disabled_ca_round_trips() {
        let config = Platform::builder()
            .without_compressive_acquisition()
            .build()
            .expect("valid")
            .config()
            .clone();
        let parsed = PlatformConfig::from_text(&config.to_text()).expect("parse");
        assert_eq!(parsed.ca, None);
        assert_eq!(parsed, config);
    }

    #[test]
    fn partial_configs_fall_back_to_paper_defaults() {
        let parsed =
            PlatformConfig::from_text("sensor.height = 32\nsensor.width = 32\n").expect("parse");
        assert_eq!(parsed.sensor.height, 32);
        assert_eq!(parsed.hardware.geometry.mrs_per_arm, 9);
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected_with_context() {
        let err = PlatformConfig::from_text("geometry.mrs_per_arm = nine").expect_err("bad value");
        assert!(err.to_string().contains("geometry.mrs_per_arm"));
        // A typo, and keys that no simulation read and were removed, are
        // unknown keys.
        for line in [
            "geometry.mrs_per_harm = 9",
            "power.adc_energy_per_conversion_pj = 2.9",
            "power.sram_read_energy_per_byte_pj = 0.35",
            "power.sram_write_energy_per_byte_pj = 0.42",
            "area_mm2 = 28",
        ] {
            let err = PlatformConfig::from_text(line).expect_err(line);
            assert!(
                err.to_string().contains("unknown configuration key"),
                "{line}: {err}"
            );
        }
        assert!(PlatformConfig::from_text("no equals sign here").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let parsed = PlatformConfig::from_text("# comment\n\nseed = 42\n").expect("parse");
        assert_eq!(parsed.seed, 42);
    }

    #[test]
    fn extreme_platform_inputs_fail_the_build_with_typed_errors() {
        // Each row used to panic on overflow while building or opening a
        // session, or to build with NaN or negative figures.
        for text in [
            "geometry.bank_columns = 18446744073709551615\ngeometry.bank_rows = 2",
            "geometry.mrs_per_arm = 18446744073709551615",
            "geometry.arms_per_bank = 18446744073709551615",
            "timing.optical_cycles_per_wave = 18446744073709551615",
            "timing.electronic_post_cycles_per_kilo_output = 18446744073709551615",
            "sensor.height = 4294967296\nsensor.width = 4294967296",
            "periphery.dacs_per_arm = 18446744073709551615",
            "periphery.adcs_per_bank = 18446744073709551615",
            "periphery.vcsels_per_arm = 18446744073709551615",
            "power.optical_cycle_ns = NaN",
            "power.optical_cycle_ns = -1",
            "power.dac_power_mw = inf",
        ] {
            let config = PlatformConfig::from_text(text).expect("parses");
            assert!(
                matches!(
                    Platform::from_config(config),
                    Err(CoreError::InvalidConfig { .. })
                ),
                "`{text}` must fail the build with InvalidConfig"
            );
        }
    }

    /// Key fragments and separators that bias random bytes toward
    /// `key = value` lines, so the fuzzer reaches the value parsers.
    const ALPHABET: &[u8] =
        b"geometry.mrs_per_arm_bank_columns_rows_periphery.dacs_vcsels_power.cycle_ns\
          timing.wave_sensor.height_width_area_mm2_ca.enabled=#\n \t0123456789-+.eENaxinf";

    /// Values tried against every key: small counts, one past each bound,
    /// `2^32`, `u64::MAX` and one beyond it, a negative, NaN, infinities,
    /// the float extremes, a boolean, a non-number and the empty string.
    const EXTREMES: [&str; 18] = [
        "0",
        "1",
        "3",
        "4097",
        "16385",
        "1048577",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "NaN",
        "inf",
        "-inf",
        "1e308",
        "1e-308",
        "true",
        "x",
        "",
    ];

    /// Parses and builds `text`; a platform that builds must open its
    /// sessions without a panic and round-trip through the text format.
    fn build_if_valid(text: &str) {
        let Ok(config) = PlatformConfig::from_text(text) else {
            return;
        };
        let Ok(platform) = Platform::from_config(config) else {
            return;
        };
        let _ = platform.session(Workload::Acquire);
        let _ = platform.session(Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        });
        let config = platform.config();
        assert_eq!(
            &PlatformConfig::from_text(&config.to_text()).expect("reparse"),
            config,
            "built config must round-trip:\n{text}"
        );
    }

    #[test]
    fn every_key_takes_extreme_values_without_a_panic() {
        let bases = [
            String::new(),
            "ca.enabled = false\n".to_string(),
            "sensor.height = 4096\nsensor.width = 4096\n".to_string(),
            "geometry.bank_columns = 4096\ngeometry.bank_rows = 4096\n\
             geometry.arms_per_bank = 1\ngeometry.mrs_per_arm = 1\n"
                .to_string(),
        ];
        let full = Platform::paper().expect("paper").config().to_text();
        let keys: Vec<&str> = full
            .lines()
            .filter_map(|line| Some(line.split_once(" = ")?.0))
            .collect();
        for base in &bases {
            for key in &keys {
                for value in EXTREMES {
                    build_if_valid(&format!("{base}{key} = {value}\n"));
                }
            }
        }
    }

    proptest::proptest! {
        /// Arbitrary bytes make `from_text` and `Platform::from_config`
        /// return `Ok` or a typed error, never panic.
        #[test]
        fn arbitrary_bytes_never_panic_the_parser_or_the_build(
            picks in proptest::collection::vec((0u8..4, 0u8..=255), 0..512),
        ) {
            let bytes: Vec<u8> = picks
                .into_iter()
                .map(|(pick, byte)| match pick {
                    0 => byte,
                    _ => ALPHABET[usize::from(byte) % ALPHABET.len()],
                })
                .collect();
            build_if_valid(&String::from_utf8_lossy(&bytes));
        }
    }
}
