//! Integer helpers: gcd/lcm and checked narrowing used throughout the crate.

use crate::error::{MathError, Result};

/// Greatest common divisor of two `i128` values; always non-negative.
///
/// `gcd(0, 0)` is defined as `0`.
///
/// # Examples
///
/// ```
/// assert_eq!(polytops_math::gcd(12, -18), 6);
/// assert_eq!(polytops_math::gcd(0, 5), 5);
/// ```
pub fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple of two `i128` values; always non-negative.
///
/// # Panics
///
/// Panics on overflow (the result would exceed `i128`).
///
/// # Examples
///
/// ```
/// assert_eq!(polytops_math::lcm(4, 6), 12);
/// ```
pub fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)).checked_mul(b).expect("lcm overflow").abs()
}

/// Greatest common divisor on machine words, the one the kernels use:
/// [`gcd`]'s `i128` remainder is a library call, this one an
/// instruction.
pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Gcd of a slice, ignoring zeros; `0` when the slice has no nonzero entry.
pub fn gcd_slice(values: &[i64]) -> i64 {
    let mut g: u64 = 0;
    for &v in values {
        g = gcd_u64(g, v.unsigned_abs());
        if g == 1 {
            break;
        }
    }
    g as i64
}

/// Narrow an `i128` to `i64`, reporting overflow as a [`MathError`].
pub fn narrow(v: i128) -> Result<i64> {
    i64::try_from(v).map_err(|_| MathError::Overflow)
}

/// Floor division on `i64` (rounds toward negative infinity).
///
/// # Panics
///
/// Panics if `b == 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(polytops_math::floor_div(7, 2), 3);
/// assert_eq!(polytops_math::floor_div(-7, 2), -4);
/// ```
pub fn floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division on `i64` (rounds toward positive infinity).
///
/// # Panics
///
/// Panics if `b == 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(polytops_math::ceil_div(7, 2), 4);
/// assert_eq!(polytops_math::ceil_div(-7, 2), -3);
/// ```
pub fn ceil_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Euclidean remainder: `modulo(a, b)` is in `0..|b|`.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn modulo(a: i64, b: i64) -> i64 {
    let r = a % b;
    if r < 0 {
        r + b.abs()
    } else {
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(-4, 6), 2);
        assert_eq!(gcd(21, 14), 7);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(0, 5), 0);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(-4, 6), 12);
    }

    #[test]
    fn gcd_slice_ignores_zeros() {
        assert_eq!(gcd_slice(&[0, 4, 6]), 2);
        assert_eq!(gcd_slice(&[0, 0]), 0);
        assert_eq!(gcd_slice(&[5]), 5);
        assert_eq!(gcd_slice(&[-3, 9, 0]), 3);
    }

    #[test]
    fn floor_ceil_div() {
        assert_eq!(floor_div(9, 3), 3);
        assert_eq!(floor_div(-9, 3), -3);
        assert_eq!(floor_div(-1, 2), -1);
        assert_eq!(ceil_div(-1, 2), 0);
        assert_eq!(ceil_div(1, 2), 1);
        assert_eq!(floor_div(5, -2), -3);
        assert_eq!(ceil_div(5, -2), -2);
    }

    #[test]
    fn modulo_is_euclidean() {
        assert_eq!(modulo(7, 3), 1);
        assert_eq!(modulo(-7, 3), 2);
        assert_eq!(modulo(-7, -3), 2);
    }

    #[test]
    fn narrow_detects_overflow() {
        assert_eq!(narrow(42), Ok(42));
        assert!(narrow(i128::from(i64::MAX) + 1).is_err());
    }
}
