//! The custom-constraint mini-language of the paper (§III-A2).
//!
//! Constraints are affine (in)equalities over the current dimension's ILP
//! variables. Coefficients of the transformation vectors are addressed as
//!
//! ```text
//! S<stmt>_<kind>_<idx>      e.g.  S0_it_1, S3_par_0, S2_cst
//! ```
//!
//! where `<kind>` is `it` (iterator coefficients `T_it`), `par`
//! (parameter coefficients `T_par`) or `cst` (the constant `T_cst`, which
//! takes no index). Replacing `<stmt>` or `<idx>` with the wildcard `i`
//! sums over all statements / indices, so the paper's example
//! `S3_it_i <= 1` means `Σ_k T_it_k(S3) ≤ 1` — i.e. no skewing for S3.
//! User variables declared in `new_variables` may appear by name. The
//! shorthand keyword `no-skewing` expands to one such constraint per
//! statement.
//!
//! Grammar: `expr (>=|<=|=|==) expr` with `expr` a sum of optionally
//! `const *`-scaled atoms.

use polytops_math::RowKind;

use crate::error::ScheduleError;
use crate::space::IlpSpace;

/// A parsed constraint row over `space.total() + 1` columns.
pub type ConstraintRow = (RowKind, Vec<i64>);

/// Parses a list of constraint strings against an ILP space.
///
/// # Errors
///
/// Returns [`ScheduleError::ConstraintSyntax`] with the offending text.
///
/// # Examples
///
/// ```
/// use polytops_core::{constraints::parse_constraints, space::IlpSpace};
/// use polytops_ir::{Aff, ScopBuilder};
///
/// let mut b = ScopBuilder::new("k");
/// let n = b.param("N");
/// let a = b.array("A", &[n.clone()], 8);
/// b.open_loop("i", Aff::val(0), n - 1);
/// b.stmt("S0").write(a, &[Aff::var("i")]).add(&mut b);
/// b.close_loop();
/// let scop = b.build().unwrap();
/// let space = IlpSpace::new(&scop, vec![], 0, false, false);
/// let rows = parse_constraints(&["S0_it_0 >= 1".to_string()], &space).unwrap();
/// assert_eq!(rows.len(), 1);
/// ```
pub fn parse_constraints(
    texts: &[String],
    space: &IlpSpace,
) -> Result<Vec<ConstraintRow>, ScheduleError> {
    let mut out = Vec::new();
    for text in texts {
        if text.trim() == "no-skewing" {
            // Per statement: sum of iterator coefficients <= 1.
            for s in 0..space.stmts.len() {
                let mut row = vec![0i64; space.total() + 1];
                for i in 0..space.stmts[s].depth {
                    space.add_iter_coeff(&mut row, s, i, -1);
                }
                row[space.total()] = 1; // 1 - Σ T_it >= 0
                out.push((RowKind::Ineq, row));
            }
            continue;
        }
        out.push(parse_one(text, space)?);
    }
    Ok(out)
}

fn err(text: &str, detail: impl Into<String>) -> ScheduleError {
    ScheduleError::ConstraintSyntax {
        text: text.to_string(),
        detail: detail.into(),
    }
}

/// The error of an integer, in `text` or in the row built from it, past
/// `i64`.
fn out_of_range(text: &str) -> ScheduleError {
    err(text, "integer out of range")
}

/// Splits on the comparison operator and combines both sides.
fn parse_one(text: &str, space: &IlpSpace) -> Result<ConstraintRow, ScheduleError> {
    let (op, lhs_txt, rhs_txt) =
        split_relop(text).ok_or_else(|| err(text, "expected one of `>=`, `<=`, `=`, `==`"))?;
    let lhs = parse_expr(lhs_txt, text, space)?;
    let rhs = parse_expr(rhs_txt, text, space)?;
    let (kind, big, small) = match op {
        ">=" => (RowKind::Ineq, &lhs, &rhs),
        "<=" => (RowKind::Ineq, &rhs, &lhs),
        _ => (RowKind::Eq, &lhs, &rhs),
    };
    let row = big
        .iter()
        .zip(small)
        .map(|(b, s)| b.checked_sub(*s).ok_or_else(|| out_of_range(text)))
        .collect::<Result<_, _>>()?;
    Ok((kind, row))
}

fn split_relop(text: &str) -> Option<(&'static str, &str, &str)> {
    for op in [">=", "<=", "=="] {
        if let Some(pos) = text.find(op) {
            return Some((
                if op == "==" { "=" } else { op },
                &text[..pos],
                &text[pos + 2..],
            ));
        }
    }
    // Single `=` (not part of >= / <=).
    if let Some(pos) = text.find('=') {
        let before = text.as_bytes().get(pos.wrapping_sub(1)).copied();
        if before != Some(b'>') && before != Some(b'<') {
            return Some(("=", &text[..pos], &text[pos + 1..]));
        }
    }
    None
}

/// Parses a sum of terms into a dense row (coefficients + constant).
fn parse_expr(expr: &str, whole: &str, space: &IlpSpace) -> Result<Vec<i64>, ScheduleError> {
    let mut row = vec![0i64; space.total() + 1];
    let toks = tokenize(expr, whole)?;
    let mut i = 0usize;
    let mut sign: i64 = 1;
    let mut expect_term = true;
    while i < toks.len() {
        match &toks[i] {
            Token::Plus => {
                if expect_term {
                    return Err(err(whole, "unexpected `+`"));
                }
                sign = 1;
                expect_term = true;
                i += 1;
            }
            Token::Minus => {
                if expect_term {
                    sign = -sign;
                } else {
                    sign = -1;
                }
                expect_term = true;
                i += 1;
            }
            _ if expect_term => {
                // term := int [* atom] | atom [* int]
                let (coeff, atom, advance) = read_term(&toks[i..], whole)?;
                let coeff = sign.checked_mul(coeff).ok_or_else(|| out_of_range(whole))?;
                // The term goes on a zero row of its own: the columns it
                // touches are distinct and `|coeff| < 2^63`, so they hold
                // `±coeff` exactly, and only the sum can overflow.
                let mut term = vec![0i64; row.len()];
                apply_atom(&mut term, coeff, &atom, whole, space)?;
                for (r, t) in row.iter_mut().zip(term) {
                    *r = r.checked_add(t).ok_or_else(|| out_of_range(whole))?;
                }
                i += advance;
                sign = 1;
                expect_term = false;
            }
            other => {
                return Err(err(whole, format!("unexpected token {other:?}")));
            }
        }
    }
    if expect_term && !toks.is_empty() {
        return Err(err(whole, "dangling operator"));
    }
    Ok(row)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Int(i64),
    Ident(String),
    Plus,
    Minus,
    Star,
}

fn tokenize(expr: &str, whole: &str) -> Result<Vec<Token>, ScheduleError> {
    let mut out = Vec::new();
    let mut chars = expr.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' => {
                chars.next();
            }
            '+' => {
                chars.next();
                out.push(Token::Plus);
            }
            '-' => {
                chars.next();
                out.push(Token::Minus);
            }
            '*' => {
                chars.next();
                out.push(Token::Star);
            }
            '0'..='9' => {
                let mut v: i64 = 0;
                while let Some(&d) = chars.peek() {
                    if let Some(dv) = d.to_digit(10) {
                        v = (v.checked_mul(10))
                            .and_then(|v| v.checked_add(i64::from(dv)))
                            .ok_or_else(|| out_of_range(whole))?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Int(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut name = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        name.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Ident(name));
            }
            other => return Err(err(whole, format!("unexpected character `{other}`"))),
        }
    }
    Ok(out)
}

/// Reads one term starting at `toks[0]`; returns `(coefficient, atom
/// name or empty for pure constant, tokens consumed)`.
fn read_term(toks: &[Token], whole: &str) -> Result<(i64, String, usize), ScheduleError> {
    match &toks[0] {
        Token::Int(v) => {
            if toks.get(1) == Some(&Token::Star) {
                match toks.get(2) {
                    Some(Token::Ident(name)) => Ok((*v, name.clone(), 3)),
                    _ => Err(err(whole, "expected identifier after `*`")),
                }
            } else {
                Ok((*v, String::new(), 1))
            }
        }
        Token::Ident(name) => {
            if toks.get(1) == Some(&Token::Star) {
                match toks.get(2) {
                    Some(Token::Int(v)) => Ok((*v, name.clone(), 3)),
                    _ => Err(err(whole, "expected integer after `*`")),
                }
            } else {
                Ok((1, name.clone(), 1))
            }
        }
        other => Err(err(whole, format!("unexpected token {other:?}"))),
    }
}

/// Adds `coeff * atom` into the row. Empty atom = constant.
fn apply_atom(
    row: &mut [i64],
    coeff: i64,
    atom: &str,
    whole: &str,
    space: &IlpSpace,
) -> Result<(), ScheduleError> {
    if atom.is_empty() {
        *row.last_mut().expect("row has constant column") += coeff;
        return Ok(());
    }
    // Transformation coefficient reference?
    if let Some(rest) = atom.strip_prefix('S') {
        let parts: Vec<&str> = rest.split('_').collect();
        if parts.len() >= 2 && matches!(parts[1], "it" | "par" | "cst") {
            let stmts: Vec<usize> = if parts[0] == "i" {
                (0..space.stmts.len()).collect()
            } else {
                let id: usize = parts[0]
                    .parse()
                    .map_err(|_| err(whole, format!("bad statement id `{}`", parts[0])))?;
                if id >= space.stmts.len() {
                    return Err(err(whole, format!("statement {id} out of range")));
                }
                vec![id]
            };
            match parts[1] {
                "cst" => {
                    for &s in &stmts {
                        space.add_const_coeff(row, s, coeff);
                    }
                }
                kind => {
                    let idx_part = parts.get(2).copied().unwrap_or("i");
                    for &s in &stmts {
                        let count = if kind == "it" {
                            space.stmts[s].depth
                        } else {
                            space.nparams
                        };
                        let idxs: Vec<usize> = if idx_part == "i" {
                            (0..count).collect()
                        } else {
                            let k: usize = idx_part
                                .parse()
                                .map_err(|_| err(whole, format!("bad index `{idx_part}`")))?;
                            if k >= count {
                                // Out-of-range indices for *this* statement
                                // are skipped when addressing via wildcards
                                // would differ per statement; a direct
                                // reference is an error.
                                if parts[0] == "i" {
                                    continue;
                                }
                                return Err(err(whole, format!("index {k} out of range for S{s}")));
                            }
                            vec![k]
                        };
                        for k in idxs {
                            if kind == "it" {
                                space.add_iter_coeff(row, s, k, coeff);
                            } else {
                                space.add_param_coeff(row, s, k, coeff);
                            }
                        }
                    }
                }
            }
            return Ok(());
        }
    }
    // User variable?
    if let Some(v) = space.user(atom) {
        row[v] += coeff;
        return Ok(());
    }
    Err(err(whole, format!("unknown name `{atom}`")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_ir::{Aff, Scop, ScopBuilder};

    fn scop2() -> Scop {
        let mut b = ScopBuilder::new("two");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.open_loop("j", Aff::val(0), n - 1);
        b.stmt("S0").write(a, &[Aff::var("i")]).add(&mut b);
        b.stmt("S1").write(a, &[Aff::var("j")]).add(&mut b);
        b.close_loop();
        b.close_loop();
        b.build().unwrap()
    }

    fn space() -> IlpSpace {
        IlpSpace::new(&scop2(), vec!["x".into()], 0, false, false)
    }

    #[test]
    fn single_coefficient() {
        let sp = space();
        let rows = parse_constraints(&["S0_it_1 >= 1".into()], &sp).unwrap();
        let (kind, row) = &rows[0];
        assert_eq!(*kind, RowKind::Ineq);
        // Column for S0 it[1] must be +1, constant -1.
        let mut expect = vec![0i64; sp.total() + 1];
        sp.add_iter_coeff(&mut expect, 0, 1, 1);
        expect[sp.total()] = -1;
        assert_eq!(row, &expect);
    }

    #[test]
    fn wildcard_sums_iterators() {
        let sp = space();
        // Paper example: S0_it_i <= 1 (no skewing for S0).
        let rows = parse_constraints(&["S0_it_i <= 1".into()], &sp).unwrap();
        let (_, row) = &rows[0];
        let mut expect = vec![0i64; sp.total() + 1];
        sp.add_iter_coeff(&mut expect, 0, 0, -1);
        sp.add_iter_coeff(&mut expect, 0, 1, -1);
        expect[sp.total()] = 1;
        assert_eq!(row, &expect);
    }

    #[test]
    fn statement_wildcard() {
        let sp = space();
        let rows = parse_constraints(&["Si_cst >= 0".into()], &sp).unwrap();
        let (_, row) = &rows[0];
        let mut expect = vec![0i64; sp.total() + 1];
        sp.add_const_coeff(&mut expect, 0, 1);
        sp.add_const_coeff(&mut expect, 1, 1);
        assert_eq!(row, &expect);
    }

    #[test]
    fn user_variable_and_arithmetic() {
        let sp = space();
        let rows = parse_constraints(&["x - S0_it_0 >= 0".into()], &sp).unwrap();
        let (_, row) = &rows[0];
        let mut expect = vec![0i64; sp.total() + 1];
        expect[sp.user("x").unwrap()] = 1;
        sp.add_iter_coeff(&mut expect, 0, 0, -1);
        assert_eq!(row, &expect);
    }

    #[test]
    fn equality_and_scaling() {
        let sp = space();
        let rows = parse_constraints(&["2*S1_it_0 = 4".into()], &sp).unwrap();
        let (kind, row) = &rows[0];
        assert_eq!(*kind, RowKind::Eq);
        let mut expect = vec![0i64; sp.total() + 1];
        sp.add_iter_coeff(&mut expect, 1, 0, 2);
        expect[sp.total()] = -4;
        assert_eq!(row, &expect);
    }

    #[test]
    fn no_skewing_expands_per_statement() {
        let sp = space();
        let rows = parse_constraints(&["no-skewing".into()], &sp).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn errors_are_reported() {
        let sp = space();
        assert!(parse_constraints(&["S9_it_0 >= 0".into()], &sp).is_err());
        assert!(parse_constraints(&["S0_it_7 >= 0".into()], &sp).is_err());
        assert!(parse_constraints(&["wat >= 0".into()], &sp).is_err());
        assert!(parse_constraints(&["S0_it_0".into()], &sp).is_err());
        assert!(parse_constraints(&["S0_it_0 >= ".into()], &sp).is_ok()); // empty rhs = 0
    }

    #[test]
    fn integers_past_i64_are_refused_not_wrapped() {
        let sp = space();
        let signed = IlpSpace::new(&scop2(), vec!["x".into()], 0, true, false);
        for text in [
            "S0_it_0 >= 99999999999999999999",
            // 2^64 + 1, which wraps to 1.
            "S0_it_0 >= 18446744073709551617",
            // −(2^63 − 1) − (2^63 − 1) in the row's constant.
            "S0_it_0 - 9223372036854775807 >= 9223372036854775807",
            "x + 9223372036854775807 + 1 >= 0",
            "x + x + 9223372036854775806 * x >= 0",
        ] {
            for space in [&sp, &signed] {
                assert_eq!(
                    parse_constraints(&[text.into()], space),
                    Err(err(text, "integer out of range")),
                    "{text}"
                );
            }
        }
        // The extremes that fit are kept exactly, on both sides of the
        // ± split.
        let text = "9223372036854775807 * S0_it_0 >= -9223372036854775807";
        let rows = parse_constraints(&[text.into()], &signed).unwrap();
        let mut expect = vec![0i64; signed.total() + 1];
        signed.add_iter_coeff(&mut expect, 0, 0, i64::MAX);
        expect[signed.total()] = i64::MAX;
        assert_eq!(rows, [(RowKind::Ineq, expect)]);
    }
}
