//! Minimal stand-in for the subset of `proptest` this workspace uses:
//! the `proptest!` test macro, `prop_assert*`, `prop_oneof!`, `any`,
//! range/tuple/vec strategies and `Strategy::prop_map`. Vendored in-repo
//! so the build has no registry dependencies.
//!
//! Differences from the real crate, deliberate for this workspace:
//!
//! * **No shrinking.** A failing case reports its inputs (via the
//!   assertion message) and the case number; it is not minimized.
//! * **Deterministic.** Each test derives its RNG seed from the test's
//!   fully-qualified name, so failures reproduce exactly under
//!   `cargo test` with no persistence files.

#![forbid(unsafe_code)]

pub mod test_runner {
    use std::fmt;

    /// Deterministic generator behind every strategy draw
    /// (SplitMix64-seeded xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl TestRng {
        pub fn seed_from_u64(seed: u64) -> TestRng {
            let mut sm = seed;
            TestRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform draw from `[0, bound)`; modulo bias is negligible for
        /// the small bounds test strategies use.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty draw domain");
            self.next_u64() % bound
        }

        /// Uniform in [0, 1) with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Why a test case failed. Mirrors the constructor the real crate
    /// exposes as `TestCaseError::fail`.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        reason: String,
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError { reason: reason.into() }
        }

        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError { reason: reason.into() }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.reason)
        }
    }

    impl std::error::Error for TestCaseError {}

    /// Per-test configuration. Only the knob this workspace uses.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Drives one `proptest!` test: owns the RNG and the case count.
    pub struct TestRunner {
        rng: TestRng,
        cases: u32,
    }

    impl TestRunner {
        pub fn new(config: ProptestConfig, name: &str) -> TestRunner {
            // FNV-1a over the test name: a stable, dependency-free seed.
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01B3);
            }
            TestRunner { rng: TestRng::seed_from_u64(h), cases: config.cases }
        }

        pub fn cases(&self) -> u32 {
            self.cases
        }

        pub fn generate<S: crate::strategy::Strategy>(&mut self, strategy: &S) -> S::Value {
            strategy.generate(&mut self.rng)
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Helper used by `prop_oneof!` to erase heterogeneous strategy types.
    pub fn boxed_strategy<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// The result of `prop_oneof!`: picks one branch uniformly per draw.
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Union<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one branch");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty inclusive range strategy");
                    let span = (hi as i128 - lo as i128) as u64 + 1;
                    (lo as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0)
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy (`any::<T>()`).
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit_f64()
        }
    }

    /// The strategy returned by [`any`].
    pub struct ArbitraryStrategy<A> {
        _marker: PhantomData<A>,
    }

    impl<A: Arbitrary> Strategy for ArbitraryStrategy<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    pub fn any<A: Arbitrary>() -> ArbitraryStrategy<A> {
        ArbitraryStrategy { _marker: PhantomData }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// The strategy returned by [`vec`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `prop::collection::vec(element, len_range)`: a vector whose length
    /// is drawn from `size` and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range for vec strategy");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirrors the real prelude's `prop` module path
    /// (`prop::collection::vec`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines property tests. Each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that draws `cases` inputs and runs the body, which
/// may use `prop_assert*` and `?` on `Result<_, TestCaseError>`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut runner = $crate::test_runner::TestRunner::new(
                config,
                concat!(module_path!(), "::", stringify!($name)),
            );
            for case in 0..runner.cases() {
                $(let $arg = runner.generate(&($strat));)+
                let result: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(err) = result {
                    ::std::panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        case + 1,
                        runner.cases(),
                        err
                    );
                }
            }
        }
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

/// Fail the current case unless `lhs == rhs`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: `{:?} == {:?}`", lhs, rhs),
            ));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{:?} == {:?}`: {}",
                    lhs,
                    rhs,
                    ::std::format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// Fail the current case unless `lhs != rhs`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs != *rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!("assertion failed: `{:?} != {:?}`", lhs, rhs),
            ));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs != *rhs) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: `{:?} != {:?}`: {}",
                    lhs,
                    rhs,
                    ::std::format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// Choose uniformly between several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $($crate::strategy::boxed_strategy($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_maps_compose(x in 3usize..10, y in (0u64..5).prop_map(|v| v * 2)) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y.is_multiple_of(2) && y < 10, "y = {}", y);
        }

        #[test]
        fn vec_lengths_respect_bounds(v in prop::collection::vec(any::<u8>(), 2..7)) {
            prop_assert!((2..7).contains(&v.len()));
        }

        #[test]
        fn oneof_draws_every_branch(picks in prop::collection::vec(
            prop_oneof![0usize..1, 10usize..11],
            64..65,
        )) {
            prop_assert!(picks.iter().all(|&p| p == 0 || p == 10));
            prop_assert!(picks.contains(&0) && picks.contains(&10), "both branches drawn");
        }
    }

    #[test]
    fn question_mark_and_failure_reporting_work() {
        let body = || -> Result<(), TestCaseError> {
            Err::<(), TestCaseError>(TestCaseError::fail("inner"))?;
            Ok(())
        };
        assert_eq!(body().unwrap_err().to_string(), "inner");
    }

    #[test]
    fn runner_is_deterministic_per_name() {
        use crate::test_runner::{ProptestConfig, TestRunner};
        let draw = |name: &str| {
            let mut r = TestRunner::new(ProptestConfig::default(), name);
            (0..8).map(|_| r.generate(&(0u64..1_000_000))).collect::<Vec<_>>()
        };
        // Same name, same stream; different name, different stream.
        assert_eq!(draw("alpha"), draw("alpha"));
        assert_ne!(draw("alpha"), draw("beta"));
    }
}
