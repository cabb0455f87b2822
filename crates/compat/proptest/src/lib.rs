//! Offline stand-in for `proptest` (see DESIGN.md §9).
//!
//! Reproduces the slice of the proptest API this workspace's property tests
//! use: the [`Strategy`] trait with `prop_map`/`prop_flat_map`, range and
//! tuple strategies, [`Just`], [`collection::vec`], [`Arbitrary`]-typed
//! arguments, and the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] macros. Cases are generated deterministically (the
//! RNG is seeded from the test path and case index); failing inputs are
//! reported but **not shrunk**.

use rand::prelude::*;

/// Per-test configuration (subset of proptest's).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 16 }
    }
}

/// A generator of random values of an output type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Chains a dependent strategy derived from each generated value.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut StdRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }

        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Collection strategies.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng as _;

    /// Generates `Vec`s of `element` with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The strategy [`vec()`] returns.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.len.is_empty() {
                self.len.start
            } else {
                rng.random_range(self.len.clone())
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Types usable as bare `name: Type` arguments in [`proptest!`].
pub trait Arbitrary: Sized {
    /// Draws an unconstrained random value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.random::<u64>() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.random()
    }
}

/// Builds the deterministic RNG for one test case (used by [`proptest!`]).
#[doc(hidden)]
pub fn __case_rng(test_path: &str, case: u32) -> StdRng {
    // FNV-1a over the test path, mixed with the case index.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in test_path.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    StdRng::seed_from_u64(hash ^ ((case as u64) << 32 | case as u64))
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, proptest, Arbitrary, Just, ProptestConfig, Strategy,
    };
}

/// Declares property tests: each `#[test] fn name(bindings) { body }` runs
/// `cases` times with freshly generated inputs. Bindings are either
/// `pattern in strategy` or `name: Type` (via [`Arbitrary`]).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr) $( $(#[$meta:meta])+ fn $name:ident ( $($args:tt)* ) $body:block )* ) => {
        $(
            $(#[$meta])+
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut rng = $crate::__case_rng(
                        concat!(module_path!(), "::", stringify!($name)),
                        case,
                    );
                    let result: ::std::result::Result<(), ::std::string::String> = {
                        $crate::__proptest_bind!(rng, $($args)*);
                        let case_fn = || { $body ::std::result::Result::Ok(()) };
                        case_fn()
                    };
                    if let Err(message) = result {
                        panic!("proptest {} failed at case {case}: {message}", stringify!($name));
                    }
                }
            }
        )*
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident : $ty:ty $(, $($rest:tt)*)?) => {
        let $name: $ty = <$ty as $crate::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng $(, $($rest)*)?);
    };
    ($rng:ident, $pat:pat in $strategy:expr $(, $($rest:tt)*)?) => {
        let $pat = $crate::Strategy::generate(&($strategy), &mut $rng);
        $crate::__proptest_bind!($rng $(, $($rest)*)?);
    };
}

/// Asserts a condition inside [`proptest!`], failing the case (not the
/// process) so the harness can report the case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(
                ::std::format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality inside [`proptest!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {}",
                stringify!($left),
                stringify!($right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn strategies_compose() {
        let strat = (2u16..10).prop_flat_map(|n| {
            (
                Just(n),
                crate::collection::vec((Just(n), 1u16..n.max(2)), 0..5),
            )
        });
        let mut rng = crate::__case_rng("compose", 0);
        for _ in 0..100 {
            let (n, items) = Strategy::generate(&strat, &mut rng);
            assert!((2..10).contains(&n));
            assert!(items.len() < 5);
            for (m, l) in items {
                assert_eq!(m, n);
                assert!(l >= 1 && l < n.max(2));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_binds_both_forms((a, b) in (0u16..5, 5u16..9), c: u64) {
            prop_assert!(a < 5);
            prop_assert_eq!(b.clamp(5, 8), b);
            let _ = c;
        }
    }
}
