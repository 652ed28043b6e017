//! Exact algebraic complex amplitudes for quantum circuit analysis.
//!
//! The AutoQ paper (Section 2.1, Eq. (3)) represents every amplitude as
//!
//! ```text
//! (1/√2)^k · (a + b·ω + c·ω² + d·ω³)        with ω = e^{iπ/4}
//! ```
//!
//! for arbitrary-precision integers `a, b, c, d` and `k ∈ ℕ`.  This ring
//! (the cyclotomic integers `ℤ[ω]` localised at `√2`) is closed under every
//! gate of the paper's Table 1 — the Clifford+T universal set and more — so
//! circuit analysis never needs floating point.
//!
//! [`Algebraic`] is the canonical-form implementation of that encoding.
//!
//! *Pipeline position*: bigint → **amplitude** → {treeaut, circuit} →
//! simulator → {equivcheck, core} → bench — the leaf alphabet of the tree
//! automata and the scalar type of both simulators.
//!
//! # Examples
//!
//! ```
//! use autoq_amplitude::Algebraic;
//!
//! // 1/√2 (the Hadamard coefficient) squared is 1/2:
//! let h = Algebraic::one().div_sqrt2();
//! let half = &h * &h;
//! assert_eq!(half, Algebraic::from_int(1).div_sqrt2().div_sqrt2());
//! assert!((half.to_complex().re - 0.5).abs() < 1e-12);
//!
//! // ω^8 = 1, ω^4 = −1:
//! assert_eq!(Algebraic::omega_pow(8), Algebraic::one());
//! assert_eq!(Algebraic::omega_pow(4), -&Algebraic::one());
//! ```

mod algebraic;
pub mod hash;
pub mod intern;
mod ops;

pub use algebraic::{Algebraic, ComplexF64};
pub use intern::{intern, resolve, AmpId};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_constants() {
        assert!(Algebraic::zero().is_zero());
        assert!(!Algebraic::one().is_zero());
        assert_eq!(Algebraic::omega(), Algebraic::omega_pow(1));
    }
}
