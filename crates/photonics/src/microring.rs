//! Micro-ring resonator (MR) model.
//!
//! The MR is the fundamental weighting element of the Lightator optical core:
//! an add-drop ring whose resonant wavelength is actively tuned (thermally or
//! through a PIN junction) so that its through-port transmission at the
//! wavelength of an incoming activation equals the mapped weight value
//! (paper §2, Fig. 1).
//!
//! The model follows the standard Lorentzian approximation of an add-drop
//! resonator: the through port exhibits a notch of configurable extinction at
//! the resonant wavelength and the drop port the complementary peak. Tuning
//! shifts the resonance. What holding a ring tuned costs is not modelled
//! here: it is the per-ring constant
//! [`DevicePowerTable::mr_tuning_power_mw`](crate::power::DevicePowerTable::mr_tuning_power_mw).

use crate::error::{PhotonicsError, Result};
use crate::units::Wavelength;
use serde::{Deserialize, Serialize};

/// Static design parameters of a micro-ring resonator.
///
/// The defaults describe a representative 10 µm-radius silicon MR in the
/// C band with a loaded quality factor of 8 000 and a 20 dB through-port
/// extinction ratio, comparable to the devices used by non-coherent photonic
/// accelerators such as CrossLight and Robin.
///
/// ```
/// use lightator_photonics::microring::MicroringConfig;
/// let cfg = MicroringConfig::default();
/// assert!(cfg.fwhm().nm() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MicroringConfig {
    /// Effective refractive index of the ring waveguide.
    pub effective_index: f64,
    /// Ring circumference in micrometres.
    pub circumference_um: f64,
    /// Order of the resonant mode used for weighting.
    pub resonance_order: u32,
    /// Loaded quality factor (resonant wavelength / FWHM).
    pub quality_factor: f64,
    /// Through-port extinction ratio at resonance, in dB (positive).
    pub extinction_ratio_db: f64,
    /// Insertion loss of the ring far from resonance, in dB (positive).
    pub insertion_loss_db: f64,
    /// Maximum resonance shift achievable by the tuning mechanism, in nm.
    pub tunable_range_nm: f64,
}

impl Default for MicroringConfig {
    fn default() -> Self {
        Self {
            effective_index: 2.36,
            circumference_um: 62.83, // 10 um radius ring
            resonance_order: 96,
            quality_factor: 8_000.0,
            extinction_ratio_db: 20.0,
            insertion_loss_db: 0.05,
            tunable_range_nm: 1.2,
        }
    }
}

impl MicroringConfig {
    /// Validates the configuration, returning an error naming the first
    /// parameter that is non-finite or non-positive.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] when a parameter is not a
    /// positive finite number (the insertion loss may be zero).
    pub fn validate(&self) -> Result<()> {
        let strictly_positive = [
            ("effective_index", self.effective_index),
            ("circumference_um", self.circumference_um),
            ("quality_factor", self.quality_factor),
            ("extinction_ratio_db", self.extinction_ratio_db),
            ("tunable_range_nm", self.tunable_range_nm),
        ];
        for (name, value) in strictly_positive {
            if !value.is_finite() || value <= 0.0 {
                return Err(PhotonicsError::InvalidParameter { name, value });
            }
        }
        let loss = self.insertion_loss_db;
        if !loss.is_finite() || loss < 0.0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "insertion_loss_db",
                value: loss,
            });
        }
        if self.resonance_order == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "resonance_order",
                value: 0.0,
            });
        }
        Ok(())
    }

    /// Natural (untuned) resonant wavelength, `λ_res = n_eff · L / m`
    /// (paper §2).
    #[must_use]
    pub fn natural_resonance(&self) -> Wavelength {
        let circumference_nm = self.circumference_um * 1e3;
        Wavelength::from_nm(
            self.effective_index * circumference_nm / f64::from(self.resonance_order),
        )
    }

    /// Full width at half maximum of the resonance dip.
    #[must_use]
    pub fn fwhm(&self) -> Wavelength {
        Wavelength::from_nm(self.natural_resonance().nm() / self.quality_factor)
    }

    /// Minimum through-port transmission (at exact resonance), linear scale.
    #[must_use]
    pub fn minimum_transmission(&self) -> f64 {
        10f64.powf(-self.extinction_ratio_db / 10.0)
    }

    /// Off-resonance transmission including the insertion loss, linear scale.
    #[must_use]
    pub fn maximum_transmission(&self) -> f64 {
        10f64.powf(-self.insertion_loss_db / 10.0)
    }
}

/// The constants of a ring design's Lorentzian notch. They depend only on
/// the [`MicroringConfig`], so they are computed once per design and shared
/// by every ring built from it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct Notch {
    /// [`MicroringConfig::minimum_transmission`].
    pub(crate) t_min: f64,
    /// [`MicroringConfig::maximum_transmission`].
    pub(crate) t_max: f64,
    /// Half the [`MicroringConfig::fwhm`], in nm.
    pub(crate) half_width: f64,
}

impl Notch {
    pub(crate) fn new(config: &MicroringConfig) -> Self {
        Self {
            t_min: config.minimum_transmission(),
            t_max: config.maximum_transmission(),
            half_width: config.fwhm().nm() / 2.0,
        }
    }
}

/// An actively tuned micro-ring resonator holding one weight value.
///
/// The ring is created from a [`MicroringConfig`] and a *target* wavelength —
/// the WDM channel whose intensity this ring is supposed to weight. Tuning
/// the ring moves its resonance relative to that channel, which changes the
/// through-port transmission seen by the channel and thereby imprints the
/// weight (paper Fig. 1).
///
/// ```
/// use lightator_photonics::microring::{MicroringConfig, MicroringResonator};
/// use lightator_photonics::units::Wavelength;
///
/// # fn main() -> Result<(), lightator_photonics::PhotonicsError> {
/// let channel = Wavelength::from_nm(1550.0);
/// let mut mr = MicroringResonator::new(MicroringConfig::default(), channel)?;
/// mr.set_weight(0.5)?;
/// assert!((mr.weight() - 0.5).abs() < 1e-9);
/// // The transmission realised at the channel wavelength tracks the weight.
/// assert!((mr.transmission_at(channel) - 0.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MicroringResonator {
    config: MicroringConfig,
    notch: Notch,
    channel: Wavelength,
    /// Current resonance detuning relative to the channel wavelength, nm.
    detuning_nm: f64,
    /// The ideal weight most recently requested through [`set_weight`].
    ///
    /// [`set_weight`]: MicroringResonator::set_weight
    weight: f64,
    /// Whether the tuning circuit is powered (a parked ring consumes nothing).
    active: bool,
    /// Through-port transmission at `channel` for the current tuning,
    /// refreshed whenever the ring is programmed.
    transmission: f64,
}

impl MicroringResonator {
    /// Creates a ring assigned to weight the given WDM channel.
    ///
    /// The ring starts parked far off resonance (weight ≈ 1, inactive tuning).
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if the configuration is
    /// invalid.
    pub fn new(config: MicroringConfig, channel: Wavelength) -> Result<Self> {
        config.validate()?;
        Ok(Self::parked(config, Notch::new(&config), channel))
    }

    /// A parked ring of a validated design whose notch constants the caller
    /// computed once for all rings of that design.
    pub(crate) fn parked(config: MicroringConfig, notch: Notch, channel: Wavelength) -> Self {
        // `park` sets the tuning state and the cached transmission.
        let mut ring = Self {
            config,
            notch,
            channel,
            detuning_nm: 0.0,
            weight: 0.0,
            active: false,
            transmission: 0.0,
        };
        ring.park();
        ring
    }

    /// The static configuration of this ring.
    #[must_use]
    pub fn config(&self) -> &MicroringConfig {
        &self.config
    }

    /// The WDM channel this ring weights.
    #[must_use]
    pub fn channel(&self) -> Wavelength {
        self.channel
    }

    /// The most recently programmed ideal weight.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Current detuning between the ring resonance and the channel, in nm.
    #[must_use]
    pub fn detuning_nm(&self) -> f64 {
        self.detuning_nm
    }

    /// Whether the tuning circuit is currently powered.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Powers down the tuning circuit, parking the ring far off resonance so
    /// the channel passes through unweighted (transmission ≈ 1).
    pub fn park(&mut self) {
        self.detuning_nm = self.config.tunable_range_nm;
        self.weight = 1.0;
        self.active = false;
        self.transmission = self.transmission_at(self.channel);
    }

    /// Lorentzian line shape `1 / (1 + (δ/HWHM)²)` of the current resonance,
    /// seen at `probe`.
    fn lorentz_at(&self, probe: Wavelength) -> f64 {
        let resonance_nm = self.channel.nm() + self.detuning_nm;
        let delta = probe.nm() - resonance_nm;
        1.0 / (1.0 + (delta / self.notch.half_width).powi(2))
    }

    /// Through-port transmission at an arbitrary probe wavelength, for the
    /// current tuning state. Lorentzian notch model.
    #[must_use]
    pub fn transmission_at(&self, probe: Wavelength) -> f64 {
        let Notch { t_min, t_max, .. } = self.notch;
        t_max * (1.0 - (1.0 - t_min) * self.lorentz_at(probe))
    }

    /// Drop-port transmission at a probe wavelength (complementary Lorentzian
    /// peak), useful for modelling the drop-bus of compressive-acquisition
    /// banks.
    #[must_use]
    pub fn drop_transmission_at(&self, probe: Wavelength) -> f64 {
        let Notch { t_min, t_max, .. } = self.notch;
        t_max * (1.0 - t_min) * self.lorentz_at(probe)
    }

    /// Transmission realised at the assigned channel wavelength:
    /// [`MicroringResonator::transmission_at`] the channel, computed when the
    /// ring is programmed ([`MicroringResonator::new`],
    /// [`MicroringResonator::set_weight`], [`MicroringResonator::park`]) and
    /// cached, so reading it costs nothing.
    #[must_use]
    pub fn channel_transmission(&self) -> f64 {
        self.transmission
    }

    /// Programs the ring so that the channel transmission equals `weight`.
    ///
    /// The required detuning is obtained by inverting the Lorentzian notch:
    /// `T(δ) = T_max·(1 − (1 − T_min)/(1 + (δ/HWHM)²))`. Weights below the
    /// extinction floor are clamped to the floor; weights above the
    /// off-resonance transmission are clamped to that ceiling (both reflect
    /// the physical limits of the device).
    ///
    /// Weights that would require detuning beyond the tunable range (values
    /// very close to 1.0) are realised at the edge of the range, i.e. with
    /// the best transmission the device can physically provide.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::WeightOutOfRange`] if `weight` is not in
    /// `[0, 1]` or is not finite.
    pub fn set_weight(&mut self, weight: f64) -> Result<()> {
        if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
            return Err(PhotonicsError::WeightOutOfRange { weight });
        }
        let Notch {
            t_min,
            t_max,
            half_width,
        } = self.notch;
        let clamped = (weight / t_max).clamp(t_min, 1.0 - 1e-12);
        // Invert the Lorentzian: clamped = 1 - (1 - t_min) * L, with
        // L = 1 / (1 + (δ/HWHM)²).
        let lorentz = (1.0 - clamped) / (1.0 - t_min);
        let detuning = if lorentz >= 1.0 {
            0.0
        } else {
            half_width * ((1.0 - lorentz) / lorentz).sqrt()
        };
        self.detuning_nm = detuning.min(self.config.tunable_range_nm);
        self.weight = weight;
        self.active = true;
        self.transmission = self.transmission_at(self.channel);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> MicroringResonator {
        MicroringResonator::new(MicroringConfig::default(), Wavelength::from_nm(1550.0))
            .expect("default config is valid")
    }

    #[test]
    fn natural_resonance_matches_formula() {
        let cfg = MicroringConfig::default();
        let expected =
            cfg.effective_index * cfg.circumference_um * 1e3 / f64::from(cfg.resonance_order);
        assert!((cfg.natural_resonance().nm() - expected).abs() < 1e-9);
        // Should land in the vicinity of the C band for the default geometry.
        assert!(cfg.natural_resonance().nm() > 1400.0 && cfg.natural_resonance().nm() < 1700.0);
    }

    #[test]
    fn fwhm_is_resonance_over_q() {
        let cfg = MicroringConfig::default();
        assert!(
            (cfg.fwhm().nm() - cfg.natural_resonance().nm() / cfg.quality_factor).abs() < 1e-12
        );
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = MicroringConfig {
            quality_factor: -5.0,
            ..MicroringConfig::default()
        };
        assert!(matches!(
            cfg.validate(),
            Err(PhotonicsError::InvalidParameter {
                name: "quality_factor",
                ..
            })
        ));
        let cfg = MicroringConfig {
            resonance_order: 0,
            ..MicroringConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn parked_ring_transmits_nearly_everything() {
        let mr = ring();
        assert!(!mr.is_active());
        assert!(mr.channel_transmission() > 0.9);
    }

    #[test]
    fn weight_programming_round_trips_through_transmission() {
        let mut mr = ring();
        for w in [0.05, 0.1, 0.25, 0.5, 0.75, 0.9] {
            mr.set_weight(w).expect("weight is representable");
            let realised = mr.channel_transmission();
            assert!(
                (realised - w).abs() < 0.02,
                "weight {w} realised as {realised}"
            );
        }
    }

    #[test]
    fn extreme_weights_clamp_to_device_limits() {
        let mut mr = ring();
        mr.set_weight(0.0)
            .expect("zero weight clamps to extinction floor");
        assert!(mr.channel_transmission() <= mr.config().minimum_transmission() * 1.5);
        // A weight of exactly 1.0 requires infinite detuning in the ideal
        // model, so the device realises it at the edge of its tunable range.
        mr.set_weight(1.0)
            .expect("clamps to the tunable-range edge");
        assert!(mr.channel_transmission() > 0.9);
        assert!(mr.detuning_nm() <= mr.config().tunable_range_nm);
    }

    #[test]
    fn rejects_out_of_range_weights() {
        let mut mr = ring();
        assert!(matches!(
            mr.set_weight(-0.1),
            Err(PhotonicsError::WeightOutOfRange { .. })
        ));
        assert!(matches!(
            mr.set_weight(1.5),
            Err(PhotonicsError::WeightOutOfRange { .. })
        ));
        assert!(mr.set_weight(f64::NAN).is_err());
    }

    #[test]
    fn park_resets_power_and_weight() {
        let mut mr = ring();
        mr.set_weight(0.3).expect("ok");
        assert!(mr.is_active());
        mr.park();
        assert!(!mr.is_active());
        assert!((mr.weight() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn off_channel_wavelengths_are_barely_affected() {
        let mut mr = ring();
        mr.set_weight(0.1).expect("ok");
        // A probe 10 FWHM away should pass nearly untouched.
        let far = Wavelength::from_nm(1550.0 + 10.0 * mr.config().fwhm().nm());
        assert!(mr.transmission_at(far) > 0.9);
    }

    #[test]
    fn through_and_drop_ports_are_complementary_at_resonance() {
        let mut mr = ring();
        mr.set_weight(0.5).expect("ok");
        let probe = Wavelength::from_nm(mr.channel().nm() + mr.detuning_nm());
        let thru = mr.transmission_at(probe);
        let drop = mr.drop_transmission_at(probe);
        let loss = mr.config().maximum_transmission();
        assert!((thru + drop - loss).abs() < 1e-9);
    }
}
