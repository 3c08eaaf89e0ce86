//! Bayer colour-filter layout of the imager.
//!
//! The Lightator imager is an RGB sensor with the classic Bayer mosaic
//! (paper Fig. 2): each physical pixel sees only one colour, arranged in
//! 2×2 tiles of `R G / G B`. A capture samples each photosite's colour
//! from the scene before the pixel integrates it.

use crate::frame::Channel;

/// Colour seen by the photosite at `(row, col)` under the paper's RGGB
/// tile.
#[must_use]
pub fn channel_at(row: usize, col: usize) -> Channel {
    match (row % 2, col % 2) {
        (0, 0) => Channel::Red,
        (1, 1) => Channel::Blue,
        _ => Channel::Green,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rggb_layout_matches_paper_figure() {
        assert_eq!(channel_at(0, 0), Channel::Red);
        assert_eq!(channel_at(0, 1), Channel::Green);
        assert_eq!(channel_at(1, 0), Channel::Green);
        assert_eq!(channel_at(1, 1), Channel::Blue);
        // The pattern tiles with period 2.
        assert_eq!(channel_at(2, 2), Channel::Red);
        assert_eq!(channel_at(3, 3), Channel::Blue);
    }
}
