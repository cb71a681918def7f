//! Rational references for the integer rank kernel in `src/matrix.rs`:
//! Gaussian elimination, Gauss–Jordan inversion and the projector
//! `I − Hᵀ (H Hᵀ)⁻¹ H`, computed over `Rat` the way the crate computed
//! them before the kernel became fraction-free.

use polytops_math::{gcd, lcm};

use super::Rat;

fn to_rat(m: &[Vec<i64>]) -> Vec<Vec<Rat>> {
    m.iter()
        .map(|row| row.iter().map(|&x| Rat::from(x)).collect())
        .collect()
}

/// The rank of `rows` over the rationals.
pub fn rank(rows: &[Vec<i64>]) -> usize {
    let mut m = to_rat(rows);
    let cols = m.first().map_or(0, Vec::len);
    let mut rank = 0;
    for c in 0..cols {
        let Some(p) = (rank..m.len()).find(|&r| !m[r][c].is_zero()) else {
            continue;
        };
        m.swap(rank, p);
        let (done, rest) = m.split_at_mut(rank + 1);
        let pivot = &done[rank];
        for row in rest {
            let f = row[c] / pivot[c];
            for (x, &y) in row[c..].iter_mut().zip(&pivot[c..]) {
                *x -= f * y;
            }
        }
        rank += 1;
    }
    rank
}

/// The inverse of the square matrix `m`; `None` when it is singular.
pub fn inverse(m: &[Vec<i64>]) -> Option<Vec<Vec<Rat>>> {
    inverse_of(to_rat(m))
}

fn inverse_of(mut a: Vec<Vec<Rat>>) -> Option<Vec<Vec<Rat>>> {
    let n = a.len();
    let mut inv: Vec<Vec<Rat>> = (0..n)
        .map(|i| (0..n).map(|j| Rat::from(i64::from(i == j))).collect())
        .collect();
    for col in 0..n {
        let p = (col..n).find(|&r| !a[r][col].is_zero())?;
        a.swap(p, col);
        inv.swap(p, col);
        let pivot = a[col][col];
        for c in 0..n {
            a[col][c] = a[col][c] / pivot;
            inv[col][c] = inv[col][c] / pivot;
        }
        for r in 0..n {
            let f = a[r][col];
            if r == col || f.is_zero() {
                continue;
            }
            for c in 0..n {
                let (sa, si) = (f * a[col][c], f * inv[col][c]);
                a[r][c] -= sa;
                inv[r][c] -= si;
            }
        }
    }
    Some(inv)
}

/// The nonzero rows of `I − Hᵀ (H Hᵀ)⁻¹ H` for a full-row-rank `h`
/// over `n` columns, each scaled to a primitive integer vector.
pub fn projector(h: &[Vec<i64>], n: usize) -> Vec<Vec<i64>> {
    let h = to_rat(h);
    let dot = |a: &[Rat], b: &[Rat]| a.iter().zip(b).fold(Rat::ZERO, |s, (&x, &y)| s + x * y);
    let gram: Vec<Vec<Rat>> = h
        .iter()
        .map(|a| h.iter().map(|b| dot(a, b)).collect())
        .collect();
    let inv = inverse_of(gram).expect("H has full row rank");
    let mut out = Vec::new();
    for r in 0..n {
        let row: Vec<Rat> = (0..n)
            .map(|c| {
                let mut p = Rat::from(i64::from(r == c));
                for (i, hi) in h.iter().enumerate() {
                    for (j, hj) in h.iter().enumerate() {
                        p -= hi[r] * inv[i][j] * hj[c];
                    }
                }
                p
            })
            .collect();
        out.extend(primitive(&row));
    }
    out
}

/// `row` scaled to a primitive integer vector; `None` for the zero row.
fn primitive(row: &[Rat]) -> Option<Vec<i64>> {
    let den = row.iter().fold(1, |l, v| lcm(l, v.denom()));
    let ints: Vec<i128> = row.iter().map(|v| v.numer() * (den / v.denom())).collect();
    let g = ints.iter().fold(0, |g, &x| gcd(g, x));
    (g != 0).then(|| ints.iter().map(|&x| (x / g) as i64).collect())
}
