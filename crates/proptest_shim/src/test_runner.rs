//! Deterministic RNG and configuration for the shimmed test runner.

use std::sync::OnceLock;

/// The environment variable whose value, an unsigned integer, is mixed
/// into every case's stream, so that a run draws cases the fixed streams
/// never reach. Unset, every stream depends only on the test name and the
/// case index.
pub const SEED_VAR: &str = "FIM_PROPTEST_SEED";

/// The run seed from [`SEED_VAR`], read once per process.
///
/// # Panics
///
/// Panics if the variable is set to anything but an unsigned integer.
pub fn run_seed() -> Option<u64> {
    static SEED: OnceLock<Option<u64>> = OnceLock::new();
    *SEED.get_or_init(|| {
        let value = std::env::var(SEED_VAR).ok()?;
        let seed = value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{SEED_VAR}={value:?}: expected an unsigned integer"));
        Some(seed)
    })
}

/// How to reproduce a failing case: the run seed it was drawn under.
pub fn seed_note() -> String {
    match run_seed() {
        Some(seed) => format!("{SEED_VAR}={seed}; rerun with it set to reproduce"),
        None => format!("{SEED_VAR} unset: the fixed streams"),
    }
}

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic per-case random source (SplitMix64 over an FNV-1a hash of
/// the test name and the case index).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for one named test case under the run seed ([`run_seed`]); the
    /// stream depends only on `(name, case, seed)`, so failures reproduce
    /// across runs and machines.
    pub fn for_case(name: &str, case: u64) -> Self {
        Self::for_case_seeded(name, case, run_seed())
    }

    /// [`for_case`](Self::for_case) under an explicit run seed. Without
    /// one, the stream is an FNV-1a hash of the name mixed with the case
    /// index; a seed is hashed in after the name.
    pub fn for_case_seeded(name: &str, case: u64, seed: Option<u64>) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let seed_bytes = seed.map(u64::to_le_bytes);
        for b in name.as_bytes().iter().chain(seed_bytes.iter().flatten()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
