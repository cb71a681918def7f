//! Execution check of the emitted C.
//!
//! Every reference kernel and `wide_scop_8`, under the five presets and
//! under tiled, wavefront and vectorized configurations with small tiles
//! (3–5, so that small parameters cross many tile boundaries), is lowered
//! with `emit_c`. The programs are compiled by one `cc` invocation into
//! one binary, one function per case, and each is run over a grid of
//! small parameter values. Every `S<k>(…)` call folds `(k, args…)` into a
//! running hash.
//!
//! The expected hash folds the same values over the domain's integer
//! points, enumerated here from the domain rows alone (no dependence
//! analysis, no solver), in the order `ScheduleTree::instance_cmp` gives
//! them, ties broken by statement id. The check shares nothing with the
//! scanner but the schedule tree it scans, and it checks what the
//! scanner's own tests cannot: the `floord` / `ceild` bounds, the
//! `min` / `max` unions and the guards as C evaluates them.
//!
//! One mutant, an innermost upper bound shifted down by one, must be
//! rejected. Without a `cc` on `PATH` the test prints a note and passes.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use polytops_codegen::emit_c;
use polytops_core::{schedule, SchedulerConfig};
use polytops_ir::{Scop, StmtId};
use polytops_math::RowKind;
use polytops_workloads::{all_kernels, sweep::preset_grid, synthetic};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The helpers every case needs: the hash, CLooG's integer divisions and
/// `max` / `min` of any arity.
const PRELUDE: &str = r#"#include <stdio.h>
typedef long long i64;
static unsigned long long h, count;
static void fold(i64 k, int n, const i64 *a) {
  h = (h ^ (unsigned long long)k) * 1099511628211ULL;
  for (int i = 0; i < n; i++) h = (h ^ (unsigned long long)a[i]) * 1099511628211ULL;
  count++;
}
#define S_(k, ...) do { i64 a_[] = {0, __VA_ARGS__}; fold(k, (int)(sizeof a_ / sizeof *a_) - 1, a_ + 1); } while (0)
static i64 floord(i64 a, i64 b) { i64 q = a / b; return (a % b != 0 && (a < 0) != (b < 0)) ? q - 1 : q; }
static i64 ceild(i64 a, i64 b) { return -floord(-a, b); }
static i64 max_n(int n, const i64 *v) { i64 m = v[0]; for (int i = 1; i < n; i++) if (v[i] > m) m = v[i]; return m; }
static i64 min_n(int n, const i64 *v) { i64 m = v[0]; for (int i = 1; i < n; i++) if (v[i] < m) m = v[i]; return m; }
#define max(...) max_n((int)(sizeof((i64[]){__VA_ARGS__}) / sizeof(i64)), (i64[]){__VA_ARGS__})
#define min(...) min_n((int)(sizeof((i64[]){__VA_ARGS__}) / sizeof(i64)), (i64[]){__VA_ARGS__})
static void run(int id, void (*f)(const i64 *), const i64 *grid, int np, int points) {
  for (int i = 0; i < points; i++) {
    h = 14695981039346656037ULL;
    count = 0;
    f(grid + i * np);
    printf("%d %d %llu %llu\n", id, i, count, h);
  }
}
"#;

fn fold(h: u64, x: i64) -> u64 {
    (h ^ x as u64).wrapping_mul(FNV_PRIME)
}

/// The post-processing configurations beside the presets: the default
/// pipeline with small tiles, tiled alone, wavefronted, vectorized inside
/// the tiles, and all of them with `auto_vectorize`.
fn post_grid() -> Vec<(&'static str, SchedulerConfig)> {
    let post = |tiles: &[i64], wavefront: bool, vectorize: bool, auto: bool| {
        let mut config = SchedulerConfig::default();
        config.post.tile_sizes = tiles.to_vec();
        config.post.wavefront = wavefront;
        config.post.intra_tile_vectorize = vectorize;
        config.auto_vectorize = auto;
        config
    };
    vec![
        ("tile3", post(&[3], false, false, false)),
        ("tile4_wave", post(&[4], true, false, false)),
        ("tile5_vec", post(&[5], false, true, false)),
        ("tile3x4_wave_vec", post(&[3, 4], true, true, false)),
        ("tile5x3_wave_auto", post(&[5, 3], true, false, true)),
    ]
}

/// The parameter points of the grid that satisfy the SCoP's context:
/// each parameter from 0 to 8 (one parameter) or 0 to 7 (two).
fn param_grid(scop: &Scop) -> Vec<Vec<i64>> {
    let np = scop.nparams();
    let top = if np > 1 { 7 } else { 8 };
    let mut grid = vec![Vec::new()];
    for _ in 0..np {
        grid = grid
            .into_iter()
            .flat_map(|p: Vec<i64>| {
                (0..=top).map(move |v| {
                    let mut q = p.clone();
                    q.push(v);
                    q
                })
            })
            .collect();
    }
    grid.retain(|p| {
        scop.context.iter().all(|(kind, row)| {
            let v = row[np] + row[..np].iter().zip(p).map(|(a, b)| a * b).sum::<i64>();
            match kind {
                RowKind::Eq => v == 0,
                RowKind::Ineq => v >= 0,
            }
        })
    });
    grid
}

/// The integer points of a domain (rows over `(iters, params, 1)`) at
/// `params`. Each iterator ranges over the bounds of the rows whose last
/// iterator it is, a loop nest's own bounds; every row is checked on the
/// full point.
fn domain_points(rows: &[(RowKind, Vec<i64>)], d: usize, params: &[i64]) -> Vec<Vec<i64>> {
    let value = |row: &[i64], x: &[i64]| {
        let iters: i64 = row.iter().zip(x).map(|(a, b)| a * b).sum();
        let params: i64 = row[d..].iter().zip(params).map(|(a, b)| a * b).sum();
        iters + params + row[row.len() - 1]
    };
    fn walk(
        rows: &[(RowKind, Vec<i64>)],
        d: usize,
        value: &dyn Fn(&[i64], &[i64]) -> i64,
        x: &mut Vec<i64>,
        out: &mut Vec<Vec<i64>>,
    ) {
        let k = x.len();
        if k == d {
            let holds = rows.iter().all(|(kind, row)| match kind {
                RowKind::Eq => value(row, x) == 0,
                RowKind::Ineq => value(row, x) >= 0,
            });
            if holds {
                out.push(x.clone());
            }
            return;
        }
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        for (kind, row) in rows {
            let a = row[k];
            if a == 0 || row[k + 1..d].iter().any(|&c| c != 0) {
                continue;
            }
            // a·x_k + rest ≥ 0, with x_k still unset (read as 0).
            let rest = value(row, x);
            let mut bound = |a: i64, rest: i64| {
                if a > 0 {
                    lo = lo.max(-(rest.div_euclid(a)));
                } else {
                    hi = hi.min(rest.div_euclid(-a));
                }
            };
            bound(a, rest);
            if kind == &RowKind::Eq {
                bound(-a, -rest);
            }
        }
        assert!(lo > i64::MIN && hi < i64::MAX, "iterator {k} is unbounded");
        for v in lo..=hi {
            x.push(v);
            walk(rows, d, value, x, out);
            x.pop();
        }
    }
    let mut out = Vec::new();
    walk(rows, d, &value, &mut Vec::new(), &mut out);
    out
}

/// The `(count, hash)` the statement instances of `scop` give in the
/// order of `tree` at `params`.
fn expected(scop: &Scop, tree: &polytops_ir::ScheduleTree, params: &[i64]) -> (u64, u64) {
    let mut instances: Vec<(usize, Vec<i64>)> = Vec::new();
    for (sid, stmt) in scop.statements.iter().enumerate() {
        let rows: Vec<(RowKind, Vec<i64>)> =
            stmt.domain.iter().map(|(k, r)| (k, r.to_vec())).collect();
        for x in domain_points(&rows, stmt.depth(), params) {
            instances.push((sid, x));
        }
    }
    instances.sort_by(|a, b| {
        tree.instance_cmp((StmtId(a.0), &a.1), (StmtId(b.0), &b.1), params)
            .then(a.0.cmp(&b.0))
    });
    let mut h = FNV_OFFSET;
    for (sid, x) in &instances {
        h = fold(h, *sid as i64);
        h = x.iter().fold(h, |h, &v| fold(h, v));
    }
    (instances.len() as u64, h)
}

/// One lowered case: its name, SCoP, schedule tree and C body.
struct Case {
    name: String,
    scop: Scop,
    tree: polytops_ir::ScheduleTree,
    code: String,
}

/// The C function of case `id`: the parameters read from `p`, every scan
/// variable the code names declared, then the code.
fn case_function(id: usize, case: &Case) -> String {
    let mut vars = 0;
    let bytes = case.code.as_bytes();
    for (i, _) in case.code.match_indices('c') {
        let starts = i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
        let digits: String = case.code[i + 1..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if starts && !digits.is_empty() {
            vars = vars.max(digits.parse::<usize>().expect("index") + 1);
        }
    }
    let mut f = format!("static void case_{id}(const i64 *p) {{\n");
    for (i, name) in case.scop.params.iter().enumerate() {
        let _ = writeln!(f, "  i64 {name} = p[{i}];");
    }
    for v in 0..vars {
        let _ = writeln!(f, "  i64 c{v};");
    }
    f.push_str(&case.code);
    f.push_str("}\n");
    f
}

/// `code` with the upper bound of its most deeply nested loop lowered by
/// one.
fn shift_innermost_bound(code: &str) -> String {
    let (at, line) = code
        .lines()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("for ("))
        .max_by_key(|(_, l)| l.len() - l.trim_start().len())
        .expect("a loop");
    let head = line.trim_start();
    let var = &head["for (".len()..head.find(" = ").expect("init")];
    let cond = format!("; {var} <= ");
    let start = line.find(&cond).expect("bound") + cond.len();
    let end = line.find(&format!("; {var}++)")).expect("step");
    let shifted = format!(
        "{}({}) - 1{}",
        &line[..start],
        &line[start..end],
        &line[end..]
    );
    let mut lines: Vec<&str> = code.lines().collect();
    lines[at] = &shifted;
    lines.join("\n") + "\n"
}

#[test]
fn emitted_c_runs_every_domain_instance_in_schedule_order() {
    if Command::new("cc").arg("--version").output().is_err() {
        println!("note: no `cc` on PATH; the execution check of the emitted C is skipped");
        return;
    }
    let mut kernels = all_kernels();
    kernels.push(("wide_scop_8", synthetic::wide_scop(8)));
    let mut configs = preset_grid();
    configs.extend(post_grid());
    let mut cases = Vec::new();
    for (kernel, scop) in &kernels {
        for (sid, stmt) in scop.statements.iter().enumerate() {
            assert_eq!(stmt.name, format!("S{sid}"), "{kernel}");
        }
        for (config_name, config) in &configs {
            let sched = schedule(scop, config)
                .unwrap_or_else(|e| panic!("{kernel}/{config_name} schedules: {e:?}"));
            let code = emit_c(scop, &sched)
                .unwrap_or_else(|e| panic!("{kernel}/{config_name} lowers: {e:?}"));
            cases.push(Case {
                name: format!("{kernel}/{config_name}"),
                scop: scop.clone(),
                tree: sched.tree_or_lowered(),
                code,
            });
        }
    }
    // The mutant: matmul under pluto, its innermost loop one short.
    let original = cases
        .iter()
        .find(|c| c.name == "matmul/pluto")
        .expect("matmul/pluto");
    let mutant = Case {
        name: "matmul/pluto, innermost bound shifted by one".to_string(),
        scop: original.scop.clone(),
        tree: original.tree.clone(),
        code: shift_innermost_bound(&original.code),
    };
    assert_ne!(mutant.code, original.code);
    cases.push(mutant);
    let mutant_id = cases.len() - 1;

    let statements = cases
        .iter()
        .map(|c| c.scop.statements.len())
        .max()
        .unwrap_or(0);
    let mut src = PRELUDE.to_string();
    for k in 0..statements {
        let _ = writeln!(src, "#define S{k}(...) S_({k}, __VA_ARGS__)");
    }
    let grids: Vec<Vec<Vec<i64>>> = cases.iter().map(|c| param_grid(&c.scop)).collect();
    for (id, case) in cases.iter().enumerate() {
        src.push_str(&case_function(id, case));
    }
    src.push_str("int main(void) {\n");
    for (id, (case, grid)) in cases.iter().zip(&grids).enumerate() {
        let np = case.scop.nparams();
        assert!(np > 0 && !grid.is_empty(), "{}", case.name);
        let points: Vec<String> = grid
            .iter()
            .map(|p| {
                let values: Vec<String> = p.iter().map(i64::to_string).collect();
                format!("{{{}}}", values.join(", "))
            })
            .collect();
        let _ = writeln!(
            src,
            "  {{ static const i64 g[][{np}] = {{{}}}; run({id}, case_{id}, &g[0][0], {np}, {}); }}",
            points.join(", "),
            grid.len()
        );
    }
    src.push_str("  return 0;\n}\n");

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("execution-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    let (c_file, binary) = (dir.join("cases.c"), dir.join("cases"));
    fs::write(&c_file, &src).expect("write C");
    let compiled = Command::new("cc")
        .args(["-std=c99", "-O1", "-w", "-o"])
        .arg(&binary)
        .arg(&c_file)
        .output()
        .expect("cc runs");
    assert!(
        compiled.status.success(),
        "cc rejected the emitted C ({}):\n{}",
        c_file.display(),
        String::from_utf8_lossy(&compiled.stderr)
    );
    let ran = Command::new(&binary).output().expect("binary runs");
    assert!(ran.status.success(), "the compiled cases failed");
    let mut got: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
    for line in String::from_utf8(ran.stdout).expect("utf-8").lines() {
        let f: Vec<u64> = line
            .split(' ')
            .map(|w| w.parse().expect("number"))
            .collect();
        got.insert((f[0] as usize, f[1] as usize), (f[2], f[3]));
    }

    let mut failures = Vec::new();
    let mut mutant_caught = false;
    let mut runs = 0;
    for (id, (case, grid)) in cases.iter().zip(&grids).enumerate() {
        for (point, params) in grid.iter().enumerate() {
            let want = expected(&case.scop, &case.tree, params);
            let have = got.get(&(id, point)).copied();
            runs += 1;
            if have == Some(want) {
                continue;
            }
            if id == mutant_id {
                mutant_caught = true;
            } else {
                failures.push(format!(
                    "{} at {:?} = {params:?}: ran {have:?} (instances, hash), want {want:?}",
                    case.name, case.scop.params
                ));
            }
        }
    }
    let _ = fs::remove_dir_all(&dir);
    assert!(
        failures.is_empty(),
        "{} of {runs} runs differ from the domain in schedule order:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(mutant_caught, "the shifted innermost bound went unnoticed");
    assert_eq!(got.len(), runs, "every case ran at every point");
}
