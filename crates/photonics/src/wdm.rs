//! Wavelength-division-multiplexing (WDM) channel grid and crosstalk model.
//!
//! Every arm of a Lightator MVM bank carries up to nine activations, each on
//! its own wavelength. The grid defines those wavelengths and the crosstalk
//! model captures how a ring tuned to one channel partially (and undesirably)
//! attenuates its spectral neighbours — the dominant analog error source of
//! non-coherent photonic accelerators.

use crate::error::{PhotonicsError, Result};
use crate::microring::MicroringConfig;
use crate::units::Wavelength;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A uniformly spaced WDM channel grid.
///
/// ```
/// use lightator_photonics::wdm::WdmGrid;
/// use lightator_photonics::units::Wavelength;
///
/// # fn main() -> Result<(), lightator_photonics::PhotonicsError> {
/// let grid = WdmGrid::new(Wavelength::from_nm(1550.0), Wavelength::from_nm(0.8), 9)?;
/// assert_eq!(grid.channels(), 9);
/// assert!((grid.wavelength(1)?.nm() - 1550.8).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WdmGrid {
    start: Wavelength,
    spacing: Wavelength,
    channels: usize,
}

impl WdmGrid {
    /// Creates a grid of `channels` wavelengths starting at `start` with
    /// uniform `spacing`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if the spacing is not
    /// positive or `channels` is zero.
    pub fn new(start: Wavelength, spacing: Wavelength, channels: usize) -> Result<Self> {
        if spacing.nm() <= 0.0 || !spacing.nm().is_finite() {
            return Err(PhotonicsError::InvalidParameter {
                name: "spacing",
                value: spacing.nm(),
            });
        }
        if channels == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "channels",
                value: 0.0,
            });
        }
        Ok(Self {
            start,
            spacing,
            channels,
        })
    }

    /// A convenient default grid for a 9-MR Lightator arm: 0.8 nm spacing
    /// around 1550 nm.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in parameters; the `Result` mirrors
    /// [`WdmGrid::new`] so callers can use `?` uniformly.
    pub fn lightator_arm(channels: usize) -> Result<Self> {
        Self::new(
            Wavelength::from_nm(1546.0),
            Wavelength::from_nm(0.8),
            channels,
        )
    }

    /// Number of channels in the grid.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Channel spacing.
    #[must_use]
    pub fn spacing(&self) -> Wavelength {
        self.spacing
    }

    /// Wavelength of channel `index`.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::ChannelOutOfRange`] when `index` is outside
    /// the grid.
    pub fn wavelength(&self, index: usize) -> Result<Wavelength> {
        if index >= self.channels {
            return Err(PhotonicsError::ChannelOutOfRange {
                channel: index,
                channels: self.channels,
            });
        }
        Ok(Wavelength::from_nm(
            self.start.nm() + self.spacing.nm() * index as f64,
        ))
    }

    /// Iterator over all channel wavelengths in index order.
    pub fn iter(&self) -> impl Iterator<Item = Wavelength> + '_ {
        (0..self.channels)
            .map(move |i| Wavelength::from_nm(self.start.nm() + self.spacing.nm() * i as f64))
    }
}

/// Inter-channel crosstalk model for an arm of rings on a shared bus.
///
/// When the ring assigned to channel *j* is tuned, its Lorentzian tail also
/// attenuates channel *i ≠ j* by a factor that depends on the spectral
/// distance `|i − j| · spacing` and the ring linewidth. The model exposes the
/// full crosstalk matrix so the arm simulation can apply it to the activation
/// vector.
///
/// The grid and ring design are fixed at construction, so the aggregate
/// per-channel factors `Π_{j≠i} M[i][j]` never change: they are computed on
/// first use (the first [`CrosstalkModel::apply`] or arm MAC) and cached.
/// Models that have never applied crosstalk never pay for them. Clones and
/// comparisons see only the configuration, whether or not the cache is
/// filled yet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrosstalkModel {
    grid: WdmGrid,
    ring: MicroringConfig,
    enabled: bool,
    #[serde(skip)]
    factors: OnceLock<Vec<f64>>,
}

impl PartialEq for CrosstalkModel {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid && self.ring == other.ring && self.enabled == other.enabled
    }
}

impl CrosstalkModel {
    /// Creates a crosstalk model for the given grid and ring design.
    #[must_use]
    pub fn new(grid: WdmGrid, ring: MicroringConfig) -> Self {
        Self {
            grid,
            ring,
            enabled: true,
            factors: OnceLock::new(),
        }
    }

    /// Creates a disabled (ideal, crosstalk-free) model for the same grid.
    #[must_use]
    pub fn ideal(grid: WdmGrid, ring: MicroringConfig) -> Self {
        Self {
            grid,
            ring,
            enabled: false,
            factors: OnceLock::new(),
        }
    }

    /// The channel grid.
    #[must_use]
    pub fn grid(&self) -> &WdmGrid {
        &self.grid
    }

    /// Parasitic transmission factor that the ring parked on channel
    /// `ring_channel` imposes on a signal at channel `signal_channel`, when
    /// the ring is tuned close to its own channel (worst case).
    ///
    /// Returns 1.0 for the ring's own channel (the intended weighting is
    /// handled by the MR model itself) and when the model is disabled.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::ChannelOutOfRange`] if either index is
    /// outside the grid.
    pub fn parasitic_transmission(
        &self,
        ring_channel: usize,
        signal_channel: usize,
    ) -> Result<f64> {
        let ring_lambda = self.grid.wavelength(ring_channel)?;
        let signal_lambda = self.grid.wavelength(signal_channel)?;
        if !self.enabled || ring_channel == signal_channel {
            return Ok(1.0);
        }
        let delta = signal_lambda.nm() - ring_lambda.nm();
        let half_width = self.ring.fwhm().nm() / 2.0;
        let lorentz = 1.0 / (1.0 + (delta / half_width).powi(2));
        let t_min = self.ring.minimum_transmission();
        Ok(1.0 - (1.0 - t_min) * lorentz)
    }

    /// Full crosstalk matrix `M` where `M[i][j]` is the parasitic
    /// transmission applied to channel `i` by the ring assigned to channel
    /// `j`. The diagonal is 1.0.
    ///
    /// # Errors
    ///
    /// Propagates [`PhotonicsError::ChannelOutOfRange`] (cannot occur for a
    /// well-formed grid).
    pub fn matrix(&self) -> Result<Vec<Vec<f64>>> {
        let n = self.grid.channels();
        let mut m = vec![vec![1.0; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.parasitic_transmission(j, i)?;
            }
        }
        Ok(m)
    }

    /// The aggregate factor `Π_{j≠i} parasitic_transmission(j, i)` each
    /// channel `i` sees from all other rings of the arm (all 1.0 when the
    /// model is disabled), computed on the first call and cached.
    ///
    /// # Errors
    ///
    /// Propagates grid errors (cannot occur for a well-formed grid).
    pub(crate) fn factors(&self) -> Result<&[f64]> {
        if let Some(factors) = self.factors.get() {
            return Ok(factors);
        }
        let n = self.grid.channels();
        let mut factors = vec![1.0; n];
        for (i, factor) in factors.iter_mut().enumerate() {
            for j in 0..n {
                if i != j {
                    *factor *= self.parasitic_transmission(j, i)?;
                }
            }
        }
        Ok(self.factors.get_or_init(|| factors))
    }

    /// Applies the aggregate crosstalk of all rings in an arm to a vector of
    /// per-channel optical intensities, in place.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::LengthMismatch`] if the vector length does
    /// not match the grid.
    pub fn apply(&self, intensities: &mut [f64]) -> Result<()> {
        if intensities.len() != self.grid.channels() {
            return Err(PhotonicsError::LengthMismatch {
                expected: self.grid.channels(),
                actual: intensities.len(),
            });
        }
        if !self.enabled {
            return Ok(());
        }
        for (value, factor) in intensities.iter_mut().zip(self.factors()?) {
            *value *= factor;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> WdmGrid {
        WdmGrid::lightator_arm(9).expect("valid")
    }

    #[test]
    fn grid_wavelengths_are_uniformly_spaced() {
        let g = grid();
        let lambdas: Vec<f64> = g.iter().map(|w| w.nm()).collect();
        assert_eq!(lambdas.len(), 9);
        for pair in lambdas.windows(2) {
            assert!((pair[1] - pair[0] - 0.8).abs() < 1e-9);
        }
    }

    #[test]
    fn grid_rejects_bad_parameters() {
        assert!(WdmGrid::new(Wavelength::from_nm(1550.0), Wavelength::from_nm(0.0), 4).is_err());
        assert!(WdmGrid::new(Wavelength::from_nm(1550.0), Wavelength::from_nm(0.8), 0).is_err());
    }

    #[test]
    fn grid_rejects_out_of_range_channel() {
        let g = grid();
        assert!(matches!(
            g.wavelength(9),
            Err(PhotonicsError::ChannelOutOfRange {
                channel: 9,
                channels: 9
            })
        ));
    }

    #[test]
    fn crosstalk_diagonal_is_unity() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        for i in 0..9 {
            assert!((model.parasitic_transmission(i, i).expect("ok") - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn crosstalk_decays_with_channel_distance() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let near = model.parasitic_transmission(0, 1).expect("ok");
        let far = model.parasitic_transmission(0, 8).expect("ok");
        assert!(near < far, "adjacent channels must suffer more crosstalk");
        assert!(far > 0.999, "distant channels are essentially untouched");
    }

    #[test]
    fn ideal_model_is_transparent() {
        let model = CrosstalkModel::ideal(grid(), MicroringConfig::default());
        let mut v = vec![0.5; 9];
        model.apply(&mut v).expect("ok");
        assert!(v.iter().all(|&x| (x - 0.5).abs() < 1e-12));
    }

    #[test]
    fn apply_reduces_intensities_when_enabled() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let mut v = vec![1.0; 9];
        model.apply(&mut v).expect("ok");
        assert!(v.iter().all(|&x| x <= 1.0));
        assert!(
            v.iter().any(|&x| x < 1.0),
            "some channel must see crosstalk"
        );
    }

    #[test]
    fn apply_rejects_wrong_length() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let mut v = vec![1.0; 4];
        assert!(matches!(
            model.apply(&mut v),
            Err(PhotonicsError::LengthMismatch {
                expected: 9,
                actual: 4
            })
        ));
    }

    /// The cached factors reproduce the reference definition bit for bit:
    /// `apply` multiplies channel `i` by `Π_{j≠i} parasitic_transmission(j, i)`,
    /// taken in channel order.
    #[test]
    fn apply_matches_the_parasitic_transmission_products() {
        for channels in [1, 2, 9, 16] {
            let model = CrosstalkModel::new(
                WdmGrid::lightator_arm(channels).expect("valid"),
                MicroringConfig::default(),
            );
            let input: Vec<f64> = (0..channels).map(|i| 1.0 - i as f64 / 32.0).collect();
            for _ in 0..2 {
                let mut got = input.clone();
                model.apply(&mut got).expect("ok");
                for (i, (g, x)) in got.iter().zip(&input).enumerate() {
                    let mut factor = 1.0;
                    for j in (0..channels).filter(|&j| j != i) {
                        factor *= model.parasitic_transmission(j, i).expect("ok");
                    }
                    assert_eq!(
                        g.to_bits(),
                        (x * factor).to_bits(),
                        "{channels} channels, channel {i}"
                    );
                }
            }
        }
    }

    /// The factor cache is invisible: clones taken before or after the first
    /// `apply` behave identically and compare equal to the original.
    #[test]
    fn cache_state_does_not_leak_into_clones_or_equality() {
        let fresh = CrosstalkModel::new(grid(), MicroringConfig::default());
        let cold_clone = fresh.clone();
        let mut reference = vec![0.75; 9];
        fresh.apply(&mut reference).expect("ok");
        let warm_clone = fresh.clone();
        assert_eq!(fresh, cold_clone);
        assert_eq!(fresh, warm_clone);
        assert_eq!(cold_clone, warm_clone);
        for model in [&cold_clone, &warm_clone] {
            let mut v = vec![0.75; 9];
            model.apply(&mut v).expect("ok");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&v), bits(&reference));
        }
        assert_ne!(
            fresh,
            CrosstalkModel::ideal(grid(), MicroringConfig::default())
        );
    }

    #[test]
    fn matrix_is_square_and_bounded() {
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let m = model.matrix().expect("ok");
        assert_eq!(m.len(), 9);
        for row in &m {
            assert_eq!(row.len(), 9);
            for &x in row {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }

    #[test]
    fn worst_case_penalty_is_positive_but_small() {
        // 10^-0.3: the factor of a 3 dB penalty, written out so the bound
        // takes no libm call.
        const THREE_DB: f64 = 0.501_187_233_627_272_2;
        let model = CrosstalkModel::new(grid(), MicroringConfig::default());
        let worst = model
            .factors()
            .expect("ok")
            .iter()
            .fold(1.0f64, |worst, &f| worst.min(f));
        assert!(worst < 1.0, "neighbouring rings cost some light");
        assert!(
            worst > THREE_DB,
            "a sane grid keeps aggregate crosstalk below 3 dB, got factor {worst}"
        );
    }
}
