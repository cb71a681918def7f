//! A textual exchange format for [`Scop`]s, in the spirit of OpenScop.
//!
//! The format is line-oriented and self-describing; [`print_scop`] and
//! [`parse_scop`] round-trip exactly. It is not byte-compatible with the
//! original OpenScop (we have no isl/Clan to exchange with) but carries
//! the same information: context, arrays, per-statement domains, accesses
//! and β positions.

use std::error::Error;
use std::fmt;

use polytops_math::{ConstraintSystem, RowKind};

use crate::expr::AffineExpr;
use crate::scop::{Access, AccessKind, ArrayId, ArrayInfo, Scop, Statement, StmtId, Subscript};

/// Errors from [`parse_scop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScopError {
    line: usize,
    message: String,
}

impl ParseScopError {
    fn new(line: usize, message: impl Into<String>) -> ParseScopError {
        ParseScopError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseScopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scop parse error at line {}: {}",
            self.line + 1,
            self.message
        )
    }
}

impl Error for ParseScopError {}

/// Serializes a SCoP to the textual exchange format.
///
/// # Examples
///
/// ```
/// use polytops_ir::{Aff, ScopBuilder, print_scop, parse_scop};
///
/// let mut b = ScopBuilder::new("k");
/// let n = b.param("N");
/// let a = b.array("A", &[n.clone()], 8);
/// b.open_loop("i", Aff::val(0), n - 1);
/// b.stmt("S0").write(a, &[Aff::var("i")]).add(&mut b);
/// b.close_loop();
/// let scop = b.build().unwrap();
/// let text = print_scop(&scop);
/// let back = parse_scop(&text).unwrap();
/// assert_eq!(scop, back);
/// ```
pub fn print_scop(scop: &Scop) -> String {
    let mut out = String::new();
    let mut w = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    w("<polyscop>".to_string());
    w(format!("name {}", scop.name));
    w(format!("params {}", scop.params.join(" ")));
    w(format!("context {}", scop.context.len()));
    for (kind, row) in scop.context.iter() {
        w(format!("  {} {}", kind_str(kind), join(row)));
    }
    w(format!("arrays {}", scop.arrays.len()));
    for a in &scop.arrays {
        w(format!(
            "array {} {} {}",
            a.name,
            a.element_size,
            a.dims.len()
        ));
        for d in &a.dims {
            let mut row = d.param_coeffs().to_vec();
            row.push(d.constant_term());
            w(format!("  dim {}", join(&row)));
        }
    }
    w(format!("statements {}", scop.statements.len()));
    for s in &scop.statements {
        w(format!("statement {}", s.name));
        w(format!("  iters {}", s.iter_names.join(" ")));
        w(format!("  beta {}", join(&s.beta)));
        w(format!("  ops {}", s.compute_ops));
        if let Some(t) = &s.text {
            w(format!("  text {t}"));
        }
        w(format!("  domain {}", s.domain.len()));
        for (kind, row) in s.domain.iter() {
            w(format!("    {} {}", kind_str(kind), join(row)));
        }
        w(format!("  accesses {}", s.accesses.len()));
        for a in &s.accesses {
            let kind = match a.kind {
                AccessKind::Read => "read",
                AccessKind::Write => "write",
            };
            w(format!("  {} {} {}", kind, a.array.0, a.subscripts.len()));
            for sub in &a.subscripts {
                match sub {
                    Subscript::Aff(e) => w(format!("    aff {}", join(&e.to_row()))),
                    Subscript::FloorDiv(e, k) => w(format!("    div {k} {}", join(&e.to_row()))),
                    Subscript::Mod(e, k) => w(format!("    mod {k} {}", join(&e.to_row()))),
                }
            }
        }
    }
    w("</polyscop>".to_string());
    out
}

fn kind_str(kind: RowKind) -> &'static str {
    match kind {
        RowKind::Eq => "eq",
        RowKind::Ineq => "ineq",
    }
}

fn join(row: &[i64]) -> String {
    row.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

struct Cursor<'a> {
    lines: Vec<&'a str>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Result<(usize, Vec<&'a str>), ParseScopError> {
        while self.pos < self.lines.len() {
            let raw = self.lines[self.pos].trim();
            let at = self.pos;
            self.pos += 1;
            if raw.is_empty() || raw.starts_with('#') {
                continue;
            }
            return Ok((at, raw.split_whitespace().collect()));
        }
        Err(ParseScopError::new(
            self.lines.len(),
            "unexpected end of input",
        ))
    }

    /// A capacity for `n` items, `n` read from the text: each item
    /// needs at least one more line, so the lines left bound it.
    fn capacity(&self, n: usize) -> usize {
        n.min(self.lines.len() - self.pos)
    }

    fn expect(&mut self, head: &str) -> Result<(usize, Vec<&'a str>), ParseScopError> {
        let (at, toks) = self.next()?;
        if toks.first() != Some(&head) {
            return Err(ParseScopError::new(
                at,
                format!("expected `{head}`, found `{}`", toks.join(" ")),
            ));
        }
        Ok((at, toks))
    }
}

fn ints(at: usize, toks: &[&str]) -> Result<Vec<i64>, ParseScopError> {
    toks.iter()
        .map(|t| {
            t.parse::<i64>()
                .map_err(|_| ParseScopError::new(at, format!("expected integer, found `{t}`")))
        })
        .collect()
}

/// Parses the textual exchange format back into a [`Scop`].
///
/// # Errors
///
/// Returns [`ParseScopError`] with a line number on malformed input.
pub fn parse_scop(text: &str) -> Result<Scop, ParseScopError> {
    let mut cur = Cursor {
        lines: text.lines().collect(),
        pos: 0,
    };
    cur.expect("<polyscop>")?;
    let (_, name_toks) = cur.expect("name")?;
    let name = name_toks.get(1).unwrap_or(&"scop").to_string();
    let (_, ptoks) = cur.expect("params")?;
    let params: Vec<String> = ptoks[1..].iter().map(|s| s.to_string()).collect();
    let np = params.len();

    let (at, ctoks) = cur.expect("context")?;
    let nctx: usize = ctoks
        .get(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseScopError::new(at, "bad context row count"))?;
    let mut context = ConstraintSystem::new(np);
    for _ in 0..nctx {
        let (at, toks) = cur.next()?;
        let row = ints(at, &toks[1..])?;
        if row.len() != np + 1 {
            return Err(ParseScopError::new(at, "context row arity"));
        }
        match toks[0] {
            "eq" => context.add_eq(row),
            "ineq" => context.add_ineq(row),
            other => return Err(ParseScopError::new(at, format!("bad row kind `{other}`"))),
        }
    }

    let (at, atoks) = cur.expect("arrays")?;
    let narr: usize = atoks
        .get(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseScopError::new(at, "bad array count"))?;
    let mut arrays = Vec::with_capacity(cur.capacity(narr));
    for _ in 0..narr {
        let (at, toks) = cur.expect("array")?;
        if toks.len() != 4 {
            return Err(ParseScopError::new(at, "array header arity"));
        }
        let aname = toks[1].to_string();
        let esize: u32 = toks[2]
            .parse()
            .map_err(|_| ParseScopError::new(at, "bad element size"))?;
        let ndims: usize = toks[3]
            .parse()
            .map_err(|_| ParseScopError::new(at, "bad dim count"))?;
        let mut dims = Vec::with_capacity(cur.capacity(ndims));
        for _ in 0..ndims {
            let (at, toks) = cur.expect("dim")?;
            let row = ints(at, &toks[1..])?;
            if row.len() != np + 1 {
                return Err(ParseScopError::new(at, "dim row arity"));
            }
            dims.push(AffineExpr::new(Vec::new(), row[..np].to_vec(), row[np]));
        }
        arrays.push(ArrayInfo {
            name: aname,
            dims,
            element_size: esize,
        });
    }

    let (at, stoks) = cur.expect("statements")?;
    let nst: usize = stoks
        .get(1)
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseScopError::new(at, "bad statement count"))?;
    let mut statements = Vec::with_capacity(cur.capacity(nst));
    for sid in 0..nst {
        let (_, toks) = cur.expect("statement")?;
        let sname = toks.get(1).unwrap_or(&"S").to_string();
        let (_, itoks) = cur.expect("iters")?;
        let iter_names: Vec<String> = itoks[1..].iter().map(|s| s.to_string()).collect();
        let depth = iter_names.len();
        let (at, btoks) = cur.expect("beta")?;
        let beta = ints(at, &btoks[1..])?;
        let (at, otoks) = cur.expect("ops")?;
        let ops: u32 = otoks
            .get(1)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ParseScopError::new(at, "bad ops"))?;
        // Optional text line.
        let save = cur.pos;
        let mut text = None;
        if let Ok((_, toks)) = cur.next() {
            if toks.first() == Some(&"text") {
                // Recover the raw remainder of the line to preserve spacing.
                let raw = cur.lines[cur.pos - 1].trim();
                text = Some(raw["text".len()..].trim().to_string());
            } else {
                cur.pos = save;
            }
        }
        let (at, dtoks) = cur.expect("domain")?;
        let ndom: usize = dtoks
            .get(1)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ParseScopError::new(at, "bad domain row count"))?;
        let mut domain = ConstraintSystem::new(depth + np);
        for _ in 0..ndom {
            let (at, toks) = cur.next()?;
            let row = ints(at, &toks[1..])?;
            if row.len() != depth + np + 1 {
                return Err(ParseScopError::new(at, "domain row arity"));
            }
            match toks[0] {
                "eq" => domain.add_eq(row),
                "ineq" => domain.add_ineq(row),
                other => return Err(ParseScopError::new(at, format!("bad row kind `{other}`"))),
            }
        }
        let (at, atoks) = cur.expect("accesses")?;
        let nacc: usize = atoks
            .get(1)
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| ParseScopError::new(at, "bad access count"))?;
        let mut accesses = Vec::with_capacity(cur.capacity(nacc));
        for _ in 0..nacc {
            let (at, toks) = cur.next()?;
            let kind = match toks[0] {
                "read" => AccessKind::Read,
                "write" => AccessKind::Write,
                other => {
                    return Err(ParseScopError::new(
                        at,
                        format!("bad access kind `{other}`"),
                    ))
                }
            };
            let arr: usize = toks
                .get(1)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ParseScopError::new(at, "bad array id"))?;
            let nsub: usize = toks
                .get(2)
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ParseScopError::new(at, "bad subscript count"))?;
            let mut subscripts = Vec::with_capacity(cur.capacity(nsub));
            for _ in 0..nsub {
                let (at, toks) = cur.next()?;
                let parse_expr = |from: usize| -> Result<AffineExpr, ParseScopError> {
                    let row = ints(at, &toks[from..])?;
                    if row.len() != depth + np + 1 {
                        return Err(ParseScopError::new(at, "subscript row arity"));
                    }
                    Ok(AffineExpr::from_row(&row, depth, np))
                };
                match toks[0] {
                    "aff" => subscripts.push(Subscript::Aff(parse_expr(1)?)),
                    "div" | "mod" => {
                        let k: i64 = toks
                            .get(1)
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| ParseScopError::new(at, "bad div/mod constant"))?;
                        let e = parse_expr(2)?;
                        subscripts.push(if toks[0] == "div" {
                            Subscript::FloorDiv(e, k)
                        } else {
                            Subscript::Mod(e, k)
                        });
                    }
                    other => {
                        return Err(ParseScopError::new(
                            at,
                            format!("bad subscript kind `{other}`"),
                        ))
                    }
                }
            }
            accesses.push(Access {
                array: ArrayId(arr),
                kind,
                subscripts,
            });
        }
        statements.push(Statement {
            id: StmtId(sid),
            name: sname,
            iter_names,
            domain,
            accesses,
            beta,
            compute_ops: ops,
            text,
        });
    }
    cur.expect("</polyscop>")?;
    Ok(Scop {
        name,
        params,
        context,
        arrays,
        statements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ScopBuilder, SubSpec};
    use crate::expr::Aff;

    fn sample() -> Scop {
        let mut b = ScopBuilder::new("sample");
        let n = b.param("N");
        let m = b.param("M");
        let a = b.array("A", &[n.clone(), m.clone()], 8);
        let x = b.array("x", &[], 4);
        b.open_loop("i", Aff::val(0), n.clone() - 1);
        b.stmt("S0")
            .read(a, &[Aff::var("i"), Aff::val(0)])
            .write(x, &[])
            .ops(2)
            .text("x += A[i][0]")
            .add(&mut b);
        b.open_loop("j", Aff::val(1), m - 1);
        b.stmt("S1")
            .write_subs(
                a,
                vec![
                    SubSpec::Aff(Aff::var("i")),
                    SubSpec::Mod(Aff::var("j") + 1, 4),
                ],
            )
            .add(&mut b);
        b.close_loop();
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let scop = sample();
        let text = print_scop(&scop);
        let back = parse_scop(&text).unwrap();
        assert_eq!(scop, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_scop("not a scop").is_err());
        let mut text = print_scop(&sample());
        text = text.replace("ineq", "wat");
        assert!(parse_scop(&text).is_err());
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = parse_scop("<polyscop>\nbogus").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn counts_beyond_the_input_size_nothing() {
        // Each count asks for more items than lines remain: an error at
        // the end of the input, not an allocation of the count.
        let text = print_scop(&sample());
        let huge = "4611686018427387903";
        let arrays = text.replace("arrays 2", &format!("arrays {huge}"));
        let err = parse_scop(&arrays).unwrap_err();
        assert!(err.to_string().contains("expected `array`"), "{err}");
        for (from, to) in [
            ("statements 2", format!("statements {huge}")),
            ("accesses 2", format!("accesses {huge}")),
            ("A 8 2", format!("A 8 {huge}")),
            ("read 0 2", format!("read 0 {huge}")),
        ] {
            assert!(text.contains(from), "{from}");
            assert!(parse_scop(&text.replacen(from, &to, 1)).is_err(), "{to}");
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = print_scop(&sample());
        let with_comments = format!("# header\n\n{text}");
        assert_eq!(parse_scop(&with_comments).unwrap(), sample());
    }
}
