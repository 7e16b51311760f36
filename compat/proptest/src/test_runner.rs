//! Case generation loop, config, and the deterministic test RNG.

use crate::strategy::Strategy;

/// Runner configuration; only `cases` matters for this stand-in, the other
/// fields exist so `.. ProptestConfig::default()` updates compile.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
    /// Upper bound on generator rejections (filters) across the whole run.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    /// 256 cases, or — as with the real crate — what the `PROPTEST_CASES`
    /// environment variable says. A test that sets `cases` itself is not
    /// affected.
    fn default() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES").ok();
        ProptestConfig {
            cases: cases.and_then(|n| n.parse().ok()).unwrap_or(256),
            max_global_rejects: 65_536,
        }
    }
}

/// Why a single test case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case failed an assertion.
    Fail(String),
    /// The case asked to be skipped.
    Reject(String),
}

impl TestCaseError {
    /// A failing case with a message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// A skipped case with a reason.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// Result of one test-case closure.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Deterministic generator used to drive strategies (xoshiro256++ seeded
/// via splitmix64). Fixed seed per run: failures reproduce exactly.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seed deterministically.
    pub fn seed_from_u64(seed: u64) -> TestRng {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next uniform 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value below `n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// Uniform `usize` in `lo..=hi`.
    pub fn usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo + 1) as u64) as usize
    }
}

/// Drive `config.cases` generated values through `test`, panicking on the
/// first failure. Invoked by the `proptest!` macro expansion.
pub fn run<S: Strategy>(
    config: &ProptestConfig,
    strategy: &S,
    mut test: impl FnMut(S::Value) -> TestCaseResult,
) {
    let mut rng = TestRng::seed_from_u64(0x5EED_CAFE_F00D_D00D);
    let mut rejects: u32 = 0;
    let mut case: u32 = 0;
    while case < config.cases {
        let Some(value) = strategy.generate(&mut rng) else {
            rejects += 1;
            assert!(
                rejects <= config.max_global_rejects,
                "proptest: too many generator rejections ({rejects}); \
                 filter predicates may be unsatisfiable"
            );
            continue;
        };
        case += 1;
        match test(value) {
            Ok(()) => {}
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest case #{case} of {} failed: {msg}", config.cases)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::seed_from_u64(1);
        let mut b = TestRng::seed_from_u64(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn usize_inclusive_covers_endpoints() {
        let mut rng = TestRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.usize_inclusive(0, 3)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    #[should_panic(expected = "case #1")]
    fn failure_panics_with_case_number() {
        let config = ProptestConfig {
            cases: 5,
            ..ProptestConfig::default()
        };
        run(&config, &(0i64..10), |_| Err(TestCaseError::fail("boom")));
    }
}
