//! One violation per determinism lint, and one covered site that the gate
//! must not report.

use std::collections::HashMap;
use std::time::Instant;

/// `clippy::disallowed_methods`: reads the host clock.
pub fn host_clock() -> Instant {
    Instant::now()
}

/// `clippy::disallowed_types`: iteration order varies per process.
pub fn hash_ordered(keys: &[u32]) -> Vec<u32> {
    let counts: HashMap<u32, usize> = keys.iter().map(|&key| (key, 1)).collect();
    counts.into_keys().collect()
}

/// `clippy::unwrap_used`.
pub fn unwrapped(value: Option<u32>) -> u32 {
    value.unwrap()
}

/// `clippy::expect_used`.
pub fn expected(value: Option<u32>) -> u32 {
    value.expect("seeded violation")
}

/// Covered by an expectation, so the gate passes this line.
pub fn covered(value: Option<u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "the fixture's covered site")]
    value.expect("covered site")
}
