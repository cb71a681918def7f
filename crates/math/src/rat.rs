//! Exact rational arithmetic over `i128`.
//!
//! [`Rat`] is the number type of what a linear program reports
//! ([`LpOutcome`](crate::LpOutcome)) and of the rational references the
//! property tests check the integer kernels against; the simplex tableau
//! and the rank kernel ([`Echelon`](crate::Echelon)) hold integers.
//! Values are kept normalized: the denominator is always positive and
//! `gcd(num, den) == 1`.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::num::gcd;

/// An exact rational number with `i128` numerator and denominator.
///
/// Arithmetic panics on overflow rather than wrap. What still reaches it
/// is narrow — an LP reports `i64` numerators over `i64` denominators —
/// so one sum or product of such operands fits `i128`. The simplex and
/// the rank kernel, which chained these operations on request-sized
/// data, work on integers now and report
/// [`MathError::Overflow`](crate::MathError) instead.
///
/// # Examples
///
/// ```
/// use polytops_math::Rat;
///
/// let a = Rat::new(1, 3);
/// let b = Rat::new(1, 6);
/// assert_eq!(a + b, Rat::new(1, 2));
/// assert!(a > b);
/// assert_eq!((a / b), Rat::from(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128, // invariant: den > 0, gcd(num, den) == 1
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// One.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates a rational `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let g = gcd(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        Rat { num, den }
    }

    /// The numerator (sign-carrying).
    pub fn numer(self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(self) -> i128 {
        self.den
    }

    /// Whether this value is an integer.
    pub fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Whether this value is zero.
    pub fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether this value is strictly positive.
    pub fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Whether this value is strictly negative.
    pub fn is_negative(self) -> bool {
        self.num < 0
    }

    /// Largest integer `<= self`.
    pub fn floor(self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            -((-self.num + self.den - 1) / self.den)
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(self) -> i128 {
        -((-self).floor())
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Returns `self` as an `i128` if it is an integer.
    pub fn to_integer(self) -> Option<i128> {
        self.is_integer().then_some(self.num)
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i32> for Rat {
    fn from(v: i32) -> Rat {
        Rat {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i128> for Rat {
    fn from(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Cross-cancel first to limit growth.
        let g = gcd(self.den, rhs.den);
        let (da, db) = (self.den / g, rhs.den / g);
        let num = self
            .num
            .checked_mul(db)
            .and_then(|a| rhs.num.checked_mul(da).and_then(|b| a.checked_add(b)))
            .expect("rational overflow in add");
        let den = self.den.checked_mul(db).expect("rational overflow in add");
        Rat::new(num, den)
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // Cross-cancel to limit growth.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let (n1, d2) = if g1 != 0 {
            (self.num / g1, rhs.den / g1)
        } else {
            (self.num, rhs.den)
        };
        let (n2, d1) = if g2 != 0 {
            (rhs.num / g2, self.den / g2)
        } else {
            (rhs.num, self.den)
        };
        let num = n1.checked_mul(n2).expect("rational overflow in mul");
        let den = d1.checked_mul(d2).expect("rational overflow in mul");
        Rat::new(num, den)
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0)
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("rational overflow in cmp");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("rational overflow in cmp");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, -7), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a + b, Rat::new(5, 6));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 6));
        assert_eq!(a / b, Rat::new(3, 2));
        assert_eq!(-a, Rat::new(-1, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from(5).floor(), 5);
        assert_eq!(Rat::from(5).ceil(), 5);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::new(-1, 3));
        assert!(Rat::from(0) < Rat::new(1, 100));
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 6).to_string(), "1/2");
        assert_eq!(Rat::from(-4).to_string(), "-4");
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }
}
