//! Code generation and schedule rendering for PolyTOPS:
//!
//! * the **schedule-tree AST** ([`generate`], [`emit_c`] in [`ast`]) — a
//!   CLooG-lite polyhedral scanner that walks the explicit
//!   [`polytops_ir::ScheduleTree`] of a schedule, emits one union loop
//!   per band member (no per-statement sibling splitting), eliminates
//!   guards implied by the enclosing loop bounds gist-style, and lowers
//!   the result to C-like text;
//! * [`schedule_table`] — a human-readable rendering of the flat rows:
//!   per-statement scheduling rows with named iterators and parameters
//!   plus band/parallel annotations.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;

pub use ast::{
    emit_c, generate, stats, AstNode, BoundTerm, CodegenError, CodegenStats, Guard, LoopNode,
    StmtNode,
};

use std::fmt::Write as _;

use polytops_ir::{AffineExpr, Schedule, Scop, StmtId};

/// Renders one line per statement and scheduling dimension:
/// `S0  t0 = i + j  [parallel] (band 0)`.
pub fn schedule_table(scop: &Scop, sched: &Schedule) -> String {
    let mut out = String::new();
    let params: Vec<&str> = scop.params.iter().map(String::as_str).collect();
    for (sid, stmt) in scop.statements.iter().enumerate() {
        let iters: Vec<&str> = stmt.iter_names.iter().map(String::as_str).collect();
        let ss = sched.stmt(StmtId(sid));
        let _ = writeln!(out, "{}:", stmt.name);
        for (d, row) in ss.rows().iter().enumerate() {
            let e = AffineExpr::from_row(row, stmt.depth(), scop.nparams());
            let par = if sched.parallel().get(d).copied().unwrap_or(false) {
                "  [parallel]"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  t{d} = {}{par} (band {})",
                e.display(&iters, &params),
                sched.bands().get(d).copied().unwrap_or(0),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use polytops_ir::{Aff, ScopBuilder};

    fn simple() -> Scop {
        let mut b = ScopBuilder::new("k");
        let n = b.param("N");
        let a = b.array("A", &[n.clone()], 8);
        b.open_loop("i", Aff::val(0), n - 1);
        b.stmt("S0").write(a, &[Aff::var("i")]).add(&mut b);
        b.close_loop();
        b.build().unwrap()
    }

    #[test]
    fn table_names_iterators() {
        let scop = simple();
        let sched = Schedule::identity_2dp1(&scop);
        let table = schedule_table(&scop, &sched);
        assert!(table.contains("S0:"), "{table}");
        assert!(table.contains("t1 = i"), "{table}");
    }
}
