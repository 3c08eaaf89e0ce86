//! Shared helpers for the experiment harness, built on the
//! [`Platform`] facade.

use lightator_baselines::registry::photonic_variants;
use lightator_core::backend::Backend;
use lightator_core::platform::Platform;
use lightator_core::sim::ArchitectureSimulator;
use lightator_core::CoreError;
use lightator_nn::quant::{Precision, PrecisionSchedule};

/// The three uniform precisions evaluated throughout the paper.
pub const PRECISIONS: [Precision; 3] = [Precision::w4a4(), Precision::w3a4(), Precision::w2a4()];

/// The five Lightator variants of Table 1 (three uniform, two mixed),
/// resolved from the backend registry so the accuracy pass and the
/// performance rows always agree on names and schedules.
#[must_use]
pub fn lightator_variants() -> Vec<(String, PrecisionSchedule)> {
    photonic_variants()
        .into_iter()
        .map(|(variant, schedule)| (variant.name(), schedule))
        .collect()
}

/// Builds the paper-default platform — the harness's single front door.
///
/// # Errors
///
/// Propagates configuration errors (cannot occur for the paper defaults).
pub fn platform() -> Result<Platform, CoreError> {
    Platform::paper()
}

/// The paper-default architecture simulator, resolved through the platform.
///
/// # Errors
///
/// Propagates configuration errors (cannot occur for the paper defaults).
pub fn simulator() -> Result<ArchitectureSimulator, CoreError> {
    Ok(platform()?.simulator().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_lightator_variants_match_table_one() {
        let variants = lightator_variants();
        assert_eq!(variants.len(), 5);
        assert_eq!(variants[0].0, "Lightator [4:4]");
        assert_eq!(variants[3].0, "Lightator-MX [4:4][3:4]");
    }

    #[test]
    fn platform_and_simulator_build() {
        assert!(platform().is_ok());
        assert!(simulator().is_ok());
    }

    #[test]
    fn precisions_use_the_canonical_constructors() {
        assert_eq!(
            PRECISIONS,
            [Precision::w4a4(), Precision::w3a4(), Precision::w2a4()]
        );
    }
}
