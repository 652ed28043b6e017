//! Offline API shim for the [`proptest`](https://crates.io/crates/proptest)
//! property-testing crate.
//!
//! The AutoQ-rs build environment has no access to crates.io, so this crate
//! implements the subset of proptest's API the workspace uses:
//!
//! * the [`proptest!`] macro (with an optional leading
//!   `#![proptest_config(...)]`),
//! * [`Strategy`] for integer ranges, tuples of strategies and
//!   [`Strategy::prop_map`],
//! * [`any`] for the primitive integer types,
//! * [`Just`] and the [`prop_oneof!`] union macro (optionally weighted,
//!   `weight => strategy` with literal weights),
//! * [`prop_assert!`]/[`prop_assert_eq!`] and [`ProptestConfig`].
//!
//! Semantics differ from real proptest in two deliberate ways: test cases
//! are drawn from a seed derived *deterministically* from the test name (so
//! every run explores the same cases — failures always reproduce), and
//! there is **no shrinking**; a failing case reports its index and the
//! generated inputs are re-derivable from it.
//!
//! # Examples
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     // `#[test]` is written here in real test modules; the attribute list
//!     // may be empty, which keeps this doctest callable directly.
//!     fn addition_commutes(a in -1000i64..1000, b in any::<i32>()) {
//!         prop_assert_eq!(a + i64::from(b), i64::from(b) + a);
//!     }
//! }
//! addition_commutes();
//! ```

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Runner configuration (mirrors `proptest::test_runner::Config`).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> Self::Value;

    /// Returns a strategy producing `f(v)` for values `v` of `self`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// Uniformly samples `offset ∈ [0, width)`; `width == 0` means the full
/// 2^128 range (used by inclusive ranges spanning the whole domain).
fn sample_offset<R: RngCore + ?Sized>(rng: &mut R, width: u128) -> u128 {
    let raw = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
    if width == 0 {
        raw
    } else {
        raw % width
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end,
                    "cannot sample from empty strategy range {}..{}", self.start, self.end
                );
                let width = (self.end as i128).wrapping_sub(self.start as i128) as u128;
                ((self.start as i128).wrapping_add(sample_offset(rng, width) as i128)) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty strategy range {start}..={end}");
                let width = ((end as i128).wrapping_sub(start as i128) as u128).wrapping_add(1);
                ((start as i128).wrapping_add(sample_offset(rng, width) as i128)) as $t
            }
        }
    )+};
}
impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// i128/u128 ranges need the full 128-bit width computation.
impl Strategy for Range<i128> {
    type Value = i128;

    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> i128 {
        assert!(
            self.start < self.end,
            "cannot sample from empty strategy range"
        );
        let width = self.end.wrapping_sub(self.start) as u128;
        self.start.wrapping_add(sample_offset(rng, width) as i128)
    }
}

impl Strategy for Range<u128> {
    type Value = u128;

    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> u128 {
        assert!(
            self.start < self.end,
            "cannot sample from empty strategy range"
        );
        let width = self.end.wrapping_sub(self.start);
        self.start.wrapping_add(sample_offset(rng, width))
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Strategy that always produces a clone of one value (mirrors
/// `proptest::strategy::Just`).
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate<R: RngCore + ?Sized>(&self, _rng: &mut R) -> T {
        self.0.clone()
    }
}

/// A boxed generator arm of [`OneOf`] together with its weight.
pub type WeightedArm<T> = (u32, Box<dyn Fn(&mut dyn RngCore) -> T>);

/// Weighted union of strategies over a common value type; built by the
/// [`prop_oneof!`] macro (mirrors `proptest::strategy::Union`).
pub struct OneOf<T> {
    arms: Vec<WeightedArm<T>>,
    total_weight: u64,
}

impl<T> Strategy for OneOf<T> {
    type Value = T;

    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> T {
        let mut pick = rng.next_u64() % self.total_weight;
        for (weight, arm) in &self.arms {
            if pick < u64::from(*weight) {
                // `&mut R` is `Sized` and itself implements `RngCore`, so it
                // unsizes to the `&mut dyn RngCore` the boxed arm expects.
                let mut rng = rng;
                return arm(&mut rng);
            }
            pick -= u64::from(*weight);
        }
        unreachable!("weights sum to total_weight")
    }
}

/// Builds a [`OneOf`] from weighted arms; use [`prop_oneof!`] instead.
pub fn one_of<T>(arms: Vec<WeightedArm<T>>) -> OneOf<T> {
    let total_weight: u64 = arms.iter().map(|(w, _)| u64::from(*w)).sum();
    assert!(
        total_weight > 0,
        "prop_oneof! needs a positive total weight"
    );
    OneOf { arms, total_weight }
}

/// Wraps one strategy as a boxed [`OneOf`] arm; use [`prop_oneof!`] instead.
pub fn one_of_arm<T, S>(weight: u32, strategy: S) -> WeightedArm<T>
where
    S: Strategy<Value = T> + 'static,
{
    (weight, Box::new(move |rng| strategy.generate(rng)))
}

/// Shim of `proptest::prop_oneof!`: picks one of several strategies per
/// case, uniformly or by `weight => strategy` arms (weights must be
/// integer literals).
///
/// ```
/// use proptest::prelude::*;
///
/// let strategy = prop_oneof![3 => Just(0u64), 1 => 10u64..20];
/// let mut rng = proptest::case_rng("doc", 0);
/// let v = strategy.generate(&mut rng);
/// assert!(v == 0 || (10..20).contains(&v));
/// ```
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::one_of_arm($weight, $strat)),+])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::one_of(vec![$($crate::one_of_arm(1, $strat)),+])
    };
}

/// Types with a canonical "any value" strategy (mirrors
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )+};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Arbitrary for i128 {
    fn arbitrary<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        u128::arbitrary(rng) as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyStrategy<A> {
    _marker: std::marker::PhantomData<A>,
}

impl<A: Arbitrary> Strategy for AnyStrategy<A> {
    type Value = A;

    fn generate<R: RngCore + ?Sized>(&self, rng: &mut R) -> A {
        A::arbitrary(rng)
    }
}

/// Strategy producing any value of type `A` (mirrors `proptest::prelude::any`).
pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Derives the deterministic RNG for one test case.
///
/// The seed depends only on the property name and the case index (FNV-1a
/// over the name, mixed with the index), so failures reproduce exactly.
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in test_name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(hash ^ (u64::from(case) << 1))
}

/// Runs `body` for one case, decorating any panic with the case index so a
/// failure pinpoints the generated inputs.
pub fn run_case<F: FnOnce() + std::panic::UnwindSafe>(test_name: &str, case: u32, body: F) {
    if let Err(payload) = std::panic::catch_unwind(body) {
        eprintln!("proptest shim: property `{test_name}` failed on case #{case} (deterministic; re-run reproduces it)");
        std::panic::resume_unwind(payload);
    }
}

/// Defines property tests (shim of `proptest::proptest!`).
///
/// Supports the forms used in this workspace: an optional leading
/// `#![proptest_config(...)]`, then any number of property functions, each
/// with its attributes (`#[test]` in a test module) and one or more
/// `name in strategy` arguments.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(12))]  // optional
///     // `#[test]` goes here in a test module.
///     fn sums_stay_in_range(x in 0u32..10, y in 0u32..=5) {
///         prop_assert!(x + y < 15);
///     }
///
///     fn squares_are_non_negative(z in any::<i16>()) {
///         prop_assert!(i32::from(z) * i32::from(z) >= 0);
///     }
/// }
/// sums_stay_in_range();
/// squares_are_non_negative();
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]; do not use directly.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let strategies = ($($strat,)+);
            for case in 0..config.cases {
                let mut rng = $crate::case_rng(stringify!($name), case);
                let ($($arg,)+) = $crate::Strategy::generate(&strategies, &mut rng);
                $crate::run_case(stringify!($name), case, ::std::panic::AssertUnwindSafe(move || {
                    $body
                }));
            }
        }
    )*};
}

/// Shim of `proptest::prop_assert!` (plain `assert!`; panics abort the case
/// with the case index attached by the runner).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Shim of `proptest::prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Shim of `proptest::prop_assert_ne!`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// The usual glob-import surface (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_generate_in_bounds() {
        let mut rng = crate::case_rng("ranges", 0);
        for _ in 0..200 {
            let v = (-50i64..=50).generate(&mut rng);
            assert!((-50..=50).contains(&v));
            let w = (-(1i128 << 100)..(1i128 << 100)).generate(&mut rng);
            assert!((-(1i128 << 100)..(1i128 << 100)).contains(&w));
            let u = (0u64..6).generate(&mut rng);
            assert!(u < 6);
        }
    }

    #[test]
    fn prop_map_and_tuples_compose() {
        let strategy = (0i64..10, 0i64..10).prop_map(|(a, b)| a * 10 + b);
        let mut rng = crate::case_rng("compose", 1);
        for _ in 0..100 {
            let v = strategy.generate(&mut rng);
            assert!((0..100).contains(&v));
        }
    }

    #[test]
    fn case_rng_is_deterministic_and_name_sensitive() {
        use rand::RngCore;
        assert_eq!(
            crate::case_rng("x", 3).next_u64(),
            crate::case_rng("x", 3).next_u64()
        );
        assert_ne!(
            crate::case_rng("x", 3).next_u64(),
            crate::case_rng("y", 3).next_u64()
        );
        assert_ne!(
            crate::case_rng("x", 3).next_u64(),
            crate::case_rng("x", 4).next_u64()
        );
    }

    #[test]
    fn oneof_respects_weights_and_just_is_constant() {
        let strategy = prop_oneof![9 => Just(1u64), 1 => Just(1000u64)];
        let mut rng = crate::case_rng("oneof", 0);
        let mut hits = [0u32; 2];
        for _ in 0..400 {
            match strategy.generate(&mut rng) {
                1 => hits[0] += 1,
                1000 => hits[1] += 1,
                other => panic!("unexpected value {other}"),
            }
        }
        assert!(hits[0] > hits[1], "9:1 weighting should dominate: {hits:?}");
        assert!(hits[1] > 0, "light arm must still fire over 400 cases");

        let uniform = prop_oneof![Just(7i32), 0i32..1];
        for _ in 0..50 {
            let v = uniform.generate(&mut rng);
            assert!(v == 7 || v == 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_itself_works(a in any::<i64>(), b in -5i64..=5) {
            prop_assert!((-5..=5).contains(&b));
            prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        }
    }
}
