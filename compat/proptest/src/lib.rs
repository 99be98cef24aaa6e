//! Offline, API-compatible subset of the `proptest` crate.
//!
//! The build environment has no crates.io access, so the property-testing
//! surface this workspace uses is vendored here: the [`proptest!`] macro,
//! the [`strategy::Strategy`] trait with `prop_map`/`prop_flat_map`,
//! range/tuple/`Just`/`select`/`oneof`/`collection::vec` strategies, and
//! the `prop_assert*` macros.
//!
//! Differences from upstream: failing cases are reported (with the case
//! index and the test's deterministic seed) but **not shrunk**, and value
//! generation is deterministic per test name, so failures always reproduce.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Run-time configuration for a `proptest!` block.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
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

    /// A failed property-test case.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Deterministic value source handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRunner {
        state: u64,
    }

    impl TestRunner {
        /// Creates a runner seeded from the test name (deterministic).
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRunner { state: h | 1 }
        }

        /// Next 64 random bits (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn next_unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform index in `[0, n)`.
        ///
        /// # Panics
        ///
        /// Panics if `n == 0`.
        pub fn next_index(&mut self, n: usize) -> usize {
            assert!(n > 0, "cannot pick from an empty set");
            (self.next_u64() % n as u64) as usize
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRunner;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn new_value(&self, runner: &mut TestRunner) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
            (**self).new_value(runner)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, runner: &mut TestRunner) -> O {
            (self.f)(self.inner.new_value(runner))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
            (self.f)(self.inner.new_value(runner)).new_value(runner)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _runner: &mut TestRunner) -> T {
            self.0.clone()
        }
    }

    /// Uniform choice among boxed alternatives (the `prop_oneof!` backend).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, runner: &mut TestRunner) -> T {
            let i = runner.next_index(self.options.len());
            self.options[i].new_value(runner)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, runner: &mut TestRunner) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                    let wide = ((runner.next_u64() as u128) << 64) | runner.next_u64() as u128;
                    self.start.wrapping_add((wide % span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, runner: &mut TestRunner) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    if lo == <$t>::MIN && hi == <$t>::MAX {
                        let wide = ((runner.next_u64() as u128) << 64) | runner.next_u64() as u128;
                        return wide as $t;
                    }
                    let span = ((hi as i128).wrapping_sub(lo as i128) as u128) + 1;
                    let wide = ((runner.next_u64() as u128) << 64) | runner.next_u64() as u128;
                    lo.wrapping_add((wide % span) as $t)
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    // u128 needs its own expansion: the i128 span trick overflows.
    impl Strategy for std::ops::Range<u128> {
        type Value = u128;
        fn new_value(&self, runner: &mut TestRunner) -> u128 {
            assert!(self.start < self.end, "empty range strategy");
            let span = self.end - self.start;
            let wide = ((runner.next_u64() as u128) << 64) | runner.next_u64() as u128;
            self.start + wide % span
        }
    }

    impl Strategy for std::ops::RangeInclusive<u128> {
        type Value = u128;
        fn new_value(&self, runner: &mut TestRunner) -> u128 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            if lo == 0 && hi == u128::MAX {
                return ((runner.next_u64() as u128) << 64) | runner.next_u64() as u128;
            }
            let span = hi - lo + 1;
            let wide = ((runner.next_u64() as u128) << 64) | runner.next_u64() as u128;
            lo + wide % span
        }
    }

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, runner: &mut TestRunner) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let v = self.start
                        + runner.next_unit_f64() as $t * (self.end - self.start);
                    if v >= self.end { self.start } else { v }
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, runner: &mut TestRunner) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    lo + runner.next_unit_f64() as $t * (hi - lo)
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.new_value(runner),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRunner;

    /// Types with a canonical "anything" strategy.
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
        fn arbitrary_value(runner: &mut TestRunner) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary_value(runner: &mut TestRunner) -> Self {
            runner.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary_value(runner: &mut TestRunner) -> Self {
            // Any bit pattern: exercises subnormals, infinities, and NaNs,
            // like upstream's full `f64` domain.
            f64::from_bits(runner.next_u64())
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary_value(runner: &mut TestRunner) -> Self {
            f32::from_bits((runner.next_u64() >> 32) as u32)
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(runner: &mut TestRunner) -> Self {
                    runner.next_u64() as $t
                }
            }
        )*};
    }

    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, runner: &mut TestRunner) -> T {
            T::arbitrary_value(runner)
        }
    }

    /// The canonical strategy for `T` (`any::<f64>()`, `any::<bool>()`, …).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRunner;

    /// Size specification for [`vec()`]: an exact length or a half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi: *r.end() + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, runner: &mut TestRunner) -> Self::Value {
            let n = if self.size.hi - self.size.lo <= 1 {
                self.size.lo
            } else {
                self.size.lo + runner.next_index(self.size.hi - self.size.lo)
            };
            (0..n).map(|_| self.element.new_value(runner)).collect()
        }
    }
}

pub mod sample {
    use super::strategy::Strategy;
    use super::test_runner::TestRunner;

    /// Uniformly selects one of the given values.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from an empty set");
        Select { options }
    }

    /// See [`select`].
    #[derive(Debug, Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn new_value(&self, runner: &mut TestRunner) -> T {
            self.options[runner.next_index(self.options.len())].clone()
        }
    }
}

pub mod prelude {
    pub use super::arbitrary::any;
    pub use super::strategy::{BoxedStrategy, Just, Strategy};
    pub use super::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use super::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Namespace alias mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Defines property tests. See the crate docs for the supported grammar:
/// an optional `#![proptest_config(...)]` header followed by `#[test] fn`
/// items whose arguments are `pattern in strategy` pairs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $(#[test] fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            #[test]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut runner =
                    $crate::test_runner::TestRunner::deterministic(stringify!($name));
                for case in 0..config.cases {
                    $(
                        let $pat = $crate::strategy::Strategy::new_value(
                            &($strat),
                            &mut runner,
                        );
                    )+
                    let outcome: ::std::result::Result<
                        (),
                        $crate::test_runner::TestCaseError,
                    > = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            case + 1,
                            config.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)+)),
            ));
        }
    };
}

/// Fails the current case unless `a == b`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!("assertion failed: `{:?}` == `{:?}`", left, right),
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!(
                    "assertion failed: `{:?}` == `{:?}`: {}",
                    left,
                    right,
                    format!($($fmt)+)
                ),
            ));
        }
    }};
}

/// Fails the current case unless `a != b`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if !(left != right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(format!(
                "assertion failed: `{:?}` != `{:?}`",
                left, right
            )));
        }
    }};
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn runner_is_deterministic_per_name() {
        let mut a = TestRunner::deterministic("x");
        let mut b = TestRunner::deterministic("x");
        let mut c = TestRunner::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(n in 3usize..9, f in -1.5f64..2.5) {
            prop_assert!((3..9).contains(&n));
            prop_assert!((-1.5..2.5).contains(&f));
        }

        #[test]
        fn tuples_and_vecs_compose(
            (a, b) in (0u64..10, prop::sample::select(vec![1i32, 2, 3])),
            v in prop::collection::vec(0usize..5, 2..6),
        ) {
            prop_assert!(a < 10);
            prop_assert!((1..=3).contains(&b));
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn oneof_and_maps_compose(
            x in prop_oneof![
                (0usize..4).prop_map(|v| v * 2),
                Just(99usize),
            ],
            exact in prop::collection::vec(any::<bool>(), 7),
        ) {
            prop_assert!(x == 99 || x % 2 == 0);
            prop_assert_eq!(exact.len(), 7);
        }
    }
}
