//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! member implements the proptest API subset the workspace's property
//! tests use: the [`proptest!`] test macro, `prop_assert*` / `prop_assume`
//! assertions, [`strategy::Strategy`] with `prop_map`, [`strategy::Just`],
//! [`prop_oneof!`], [`arbitrary::any`], integer-range and tuple strategies,
//! and [`collection::vec`].
//!
//! Differences from real proptest, chosen for simplicity:
//!
//! * case generation is deterministic (seeded from the test name), so
//!   failures always reproduce;
//! * there is no shrinking — a failing case reports its generated inputs
//!   verbatim instead of a minimized counterexample.

#![warn(missing_docs)]

pub mod test_runner {
    //! Case generation, rejection handling and failure reporting.

    /// Deterministic generator driving strategy sampling.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates a generator from a seed (never degenerate).
        pub fn new(seed: u64) -> TestRng {
            TestRng { state: seed ^ 0x9E37_79B9_7F4A_7C15 }
        }

        /// Next 64-bit word (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Debiased uniform draw from `[0, span)`.
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            loop {
                let x = self.next_u64();
                let m = u128::from(x) * u128::from(span);
                if (m as u64) >= span.wrapping_neg() % span {
                    return (m >> 64) as u64;
                }
            }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Clone, Debug)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the inputs; try another case.
        Reject,
        /// An assertion failed.
        Fail(String),
    }

    impl TestCaseError {
        /// A failed assertion with its message.
        pub fn fail(msg: String) -> TestCaseError {
            TestCaseError::Fail(msg)
        }
    }

    /// Runner configuration (`#![proptest_config(...)]`).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
        /// Total `prop_assume!` rejections tolerated before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 256, max_global_rejects: 65_536 }
        }
    }

    /// Runs one property: `cases` successful executions of `body`, where
    /// the body returns its generated inputs (for failure reports) and the
    /// case outcome.
    ///
    /// # Panics
    ///
    /// Panics when a case fails or the rejection budget is exhausted; the
    /// message includes the case number, seed and generated inputs.
    pub fn run_proptest<F>(config: ProptestConfig, name: &str, mut body: F)
    where
        F: FnMut(&mut TestRng, &mut Vec<String>) -> Result<(), TestCaseError>,
    {
        // Seed derived from the test name so distinct properties explore
        // distinct streams but every run of one property is identical.
        let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        let mut rejects = 0u32;
        let mut attempt = 0u64;
        let mut done = 0u32;
        while done < config.cases {
            let seed = base.wrapping_add(attempt.wrapping_mul(0x2545_F491_4F6C_DD1D));
            attempt += 1;
            let mut rng = TestRng::new(seed);
            let mut inputs = Vec::new();
            match body(&mut rng, &mut inputs) {
                Ok(()) => done += 1,
                Err(TestCaseError::Reject) => {
                    rejects += 1;
                    assert!(
                        rejects <= config.max_global_rejects,
                        "proptest '{name}': too many prop_assume! rejections \
                         ({rejects}) after {done} passing cases"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!(
                        "proptest '{name}': case {done} (seed {seed:#x}) failed: {msg}\n\
                         inputs:\n  {}",
                        inputs.join("\n  ")
                    );
                }
            }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;
    use std::rc::Rc;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Erases the strategy type (for heterogeneous unions).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
        }
    }

    /// Always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// A strategy mapped through a function ([`Strategy::prop_map`]).
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A type-erased, reference-counted strategy.
    pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> BoxedStrategy<T> {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (self.0)(rng)
        }
    }

    /// Uniform choice between alternative strategies
    /// ([`prop_oneof!`](crate::prop_oneof)).
    #[derive(Clone)]
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union; `arms` must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    //! Default strategies per type (`any::<T>()`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value covering the whole domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Clone, Debug)]
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` (uniform over the full domain).
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for vectors with length drawn from a range.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `Vec` strategy: length uniform in `len`, elements from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    /// Module alias so `prop::collection::vec(...)` resolves.
    pub use crate as prop;
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supported grammar (the subset this workspace uses):
///
/// ```text
/// proptest! {
///     #![proptest_config(expr)]            // optional
///     #[test]
///     fn name(a in strategy, b: u64) { body }
///     ...
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run_proptest(
                __config,
                stringify!($name),
                |__rng, __inputs| {
                    $crate::__proptest_bind! { __rng, __inputs, $($params)* }
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

/// Implementation detail of [`proptest!`]: binds one parameter list.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident, $inputs:ident $(,)?) => {};
    ($rng:ident, $inputs:ident, $pat:pat_param in $strat:expr $(, $($rest:tt)*)?) => {
        let __value = $crate::strategy::Strategy::generate(&($strat), $rng);
        $inputs.push(format!("{} = {:?}", stringify!($pat), __value));
        let $pat = __value;
        $crate::__proptest_bind! { $rng, $inputs $(, $($rest)*)? }
    };
    ($rng:ident, $inputs:ident, $name:ident : $ty:ty $(, $($rest:tt)*)?) => {
        let __value: $ty = $crate::arbitrary::Arbitrary::arbitrary($rng);
        $inputs.push(format!("{} = {:?}", stringify!($name), __value));
        let $name = __value;
        $crate::__proptest_bind! { $rng, $inputs $(, $($rest)*)? }
    };
}

/// Uniform choice among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), __l, __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "{}\n  left: {:?}\n right: {:?}",
            format!($($fmt)+), __l, __r
        );
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left), stringify!($right), __l
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "{}\n  both: {:?}",
            format!($($fmt)+), __l
        );
    }};
}

/// Rejects the current case unless the precondition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_respect_bounds(a in 3u64..17, b in -4i64..5, c in 0usize..1) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-4..5).contains(&b));
            prop_assert_eq!(c, 0);
        }

        #[test]
        #[allow(clippy::overly_complex_bool_expr)] // tautology exercises prop_assume!
        fn any_and_typed_params(x: u64, flag: bool) {
            prop_assert_eq!(x.wrapping_add(1).wrapping_sub(1), x);
            prop_assume!(flag || !flag);
        }

        #[test]
        fn oneof_map_and_vec(vals in prop::collection::vec(
            prop_oneof![Just(1u32), Just(2u32), (10u32..20).prop_map(|v| v * 2)],
            0..32,
        )) {
            prop_assert!(vals.len() < 32);
            for v in vals {
                prop_assert!(v == 1 || v == 2 || (20..40).contains(&v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn failing_case_reports_inputs() {
        crate::test_runner::run_proptest(
            crate::test_runner::ProptestConfig { cases: 8, ..Default::default() },
            "always_fails",
            |_rng, inputs| {
                inputs.push("x = 1".into());
                Err(crate::test_runner::TestCaseError::fail("boom".into()))
            },
        );
    }

    #[test]
    fn determinism_across_runs() {
        use crate::strategy::Strategy;
        let strat = crate::collection::vec(0u64..1000, 1..10);
        let mut r1 = crate::test_runner::TestRng::new(5);
        let mut r2 = crate::test_runner::TestRng::new(5);
        assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
    }
}
