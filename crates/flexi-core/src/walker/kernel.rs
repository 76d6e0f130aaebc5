//! DSL walkers compiled into slot-resolved kernels.
//!
//! [`WalkerDef::lower`](super::WalkerDef::lower) resolves a parsed
//! `get_weight` into a [`Kernel`] — a tree of closures — once, so a weight
//! evaluation never looks a name up:
//!
//! - free variables become typed walk-state accessors (`edge`, `cur`,
//!   `prev`, `has_prev`, `step`/`iter`, `edge_time`, `walk_time`);
//! - hyperparameters become inlined constants;
//! - locals become frame slots;
//! - arrays (user arrays first, then `h`/`adj`/`label`/`deg`) and calls
//!   (`max`/`min`/`abs`/`linked`/`exp`) become direct accessors.
//!
//! Evaluation is exactly `flexi_compiler::interpret_f32`'s: every
//! arithmetic and `max`/`min`/`abs` result is rounded to f32, `exp` rounds
//! itself, comparisons and id reads stay exact and `&&`/`||` short-circuit.
//! A failed evaluation — an index out of range, an unresolvable name, a
//! missing return or a runaway loop — weighs 0.0. A definite-assignment
//! pass finds the local reads some path may reach before the local is
//! assigned; only those consult a per-call assigned bitmask and fall back
//! to the environment binding of their name.

use crate::workload::WalkState;
use flexi_compiler::{BinOp, Expr, Program, Stmt, UnOp, MAX_LOOP_ITERS};
use flexi_graph::{Csr, EdgeId};

/// Locals a call keeps in a stack frame; larger programs use a heap frame.
const INLINE_SLOTS: usize = 16;

/// A `get_weight` program with every name resolved.
pub(super) struct Kernel {
    body: Box<[Op]>,
    locals: usize,
}

enum Op {
    Set(usize, Arg),
    If(Arg, Box<[Op]>, Box<[Op]>),
    While(Arg, Box<[Op]>),
    Return(Arg),
}

/// A compiled sub-expression.
type Eval = Box<dyn Fn(&Run) -> Result<f64, Fail> + Send + Sync>;

/// An expression operand. Constants, walk-state variables and definitely
/// assigned locals are read inline by their consumer; anything else is a
/// compiled sub-expression.
enum Arg {
    Const(f64),
    Var(Var),
    Slot(usize),
    Eval(Eval),
}

/// A walk-state variable.
#[derive(Clone, Copy)]
enum Var {
    Edge,
    Cur,
    Prev,
    HasPrev,
    Step,
    EdgeTime,
    WalkTime,
}

/// An array index. Id-valued variables are used as they are: converting
/// one to f64 and back (`max(0.0) as usize`) is the identity below 2^53.
enum Index {
    Edge,
    Cur,
    Prev,
    Step,
    /// Any other value, clamped at 0 and truncated like the interpreter.
    Value(Arg),
}

impl Kernel {
    /// Resolves `program` against the walker's hyperparameters and
    /// (non-empty) environment arrays.
    pub(super) fn compile(
        program: &Program,
        hyperparams: &[(String, f64)],
        arrays: &[(String, Vec<f64>)],
    ) -> Self {
        let mut locals = Vec::new();
        collect_locals(&program.body, &mut locals);
        let lower = Lower {
            locals: &locals,
            hyperparams,
            arrays,
        };
        let (body, _) = lower.block(&program.body, &mut vec![false; locals.len()]);
        Self {
            body: body.into(),
            locals: locals.len(),
        }
    }

    /// The transition weight of `edge` at `st`.
    pub(super) fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
        let run = |slots, assigned| {
            Run {
                g,
                st,
                edge,
                slots,
                assigned,
            }
            .exec(&self.body)
        };
        let out = if self.locals <= INLINE_SLOTS {
            run(&mut [0.0; INLINE_SLOTS], &mut [0; 1])
        } else {
            run(
                &mut vec![0.0; self.locals],
                &mut vec![0; self.locals.div_ceil(64)],
            )
        };
        // A failed evaluation or a path without a return masks the edge.
        out.ok().flatten().unwrap_or(0.0) as f32
    }
}

/// Assigned names in first-assignment order: slot `i` is `locals[i]`.
fn collect_locals<'p>(stmts: &'p [Stmt], locals: &mut Vec<&'p str>) {
    for s in stmts {
        match s {
            Stmt::Assign { name, .. } => {
                if !locals.contains(&name.as_str()) {
                    locals.push(name);
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_locals(then_branch, locals);
                collect_locals(else_branch, locals);
            }
            Stmt::While { body, .. } => collect_locals(body, locals),
            Stmt::Return(_) => {}
        }
    }
}

/// Lower-time resolution context.
struct Lower<'a> {
    locals: &'a [&'a str],
    hyperparams: &'a [(String, f64)],
    arrays: &'a [(String, Vec<f64>)],
}

impl Lower<'_> {
    /// Lowers a block; `assigned` holds the definitely assigned slots on
    /// entry and on exit. Also reports whether every path through the
    /// block returns — statements after such a point are dead and dropped.
    fn block(&self, stmts: &[Stmt], assigned: &mut [bool]) -> (Vec<Op>, bool) {
        let mut ops = Vec::with_capacity(stmts.len());
        for s in stmts {
            let (op, returns) = match s {
                Stmt::Assign { name, value } => {
                    let value = self.expr(value, assigned);
                    let slot = self.slot(name).expect("collected");
                    assigned[slot] = true;
                    (Op::Set(slot, value), false)
                }
                Stmt::Return(e) => (Op::Return(self.expr(e, assigned)), true),
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    let cond = self.expr(cond, assigned);
                    let mut then_set = assigned.to_vec();
                    let (then_ops, then_returns) = self.block(then_branch, &mut then_set);
                    let mut else_set = assigned.to_vec();
                    let (else_ops, else_returns) = self.block(else_branch, &mut else_set);
                    // Only a branch that falls through constrains what is
                    // assigned after the `if`.
                    for (i, a) in assigned.iter_mut().enumerate() {
                        *a = (then_returns || then_set[i]) && (else_returns || else_set[i]);
                    }
                    let op = Op::If(cond, then_ops.into(), else_ops.into());
                    (op, then_returns && else_returns)
                }
                Stmt::While { cond, body } => {
                    // The body may run zero times: nothing it assigns is
                    // definite afterwards, and its own reads see at least
                    // the entry set.
                    let cond = self.expr(cond, assigned);
                    let (body, _) = self.block(body, &mut assigned.to_vec());
                    (Op::While(cond, body.into()), false)
                }
            };
            ops.push(op);
            if returns {
                return (ops, true);
            }
        }
        (ops, false)
    }

    fn slot(&self, name: &str) -> Option<usize> {
        self.locals.iter().position(|l| *l == name)
    }

    /// The environment binding of a free name: a walk-state variable
    /// (which shadows a hyperparameter of the same name), a hyperparameter
    /// constant, or nothing.
    fn env(&self, name: &str) -> Arg {
        let var = match name {
            "edge" => Var::Edge,
            "cur" => Var::Cur,
            "prev" => Var::Prev,
            "has_prev" => Var::HasPrev,
            "step" | "iter" => Var::Step,
            "edge_time" => Var::EdgeTime,
            "walk_time" => Var::WalkTime,
            _ => {
                return match self.hyperparams.iter().find(|(n, _)| n == name) {
                    Some(&(_, v)) => Arg::Const(v),
                    None => fail(),
                }
            }
        };
        Arg::Var(var)
    }

    fn expr(&self, e: &Expr, assigned: &[bool]) -> Arg {
        let ex = |e: &Expr| self.expr(e, assigned);
        match e {
            Expr::Num(n) => Arg::Const(*n),
            Expr::Var(name) => match self.slot(name) {
                Some(s) if assigned[s] => Arg::Slot(s),
                Some(s) => {
                    let env = self.env(name);
                    eval(move |r| {
                        if r.assigned[s / 64] >> (s % 64) & 1 != 0 {
                            Ok(r.slots[s])
                        } else {
                            env.get(r)
                        }
                    })
                }
                None => self.env(name),
            },
            Expr::Index { array, index } => {
                let index = match ex(index) {
                    Arg::Var(Var::Edge) => Index::Edge,
                    Arg::Var(Var::Cur) => Index::Cur,
                    Arg::Var(Var::Prev) => Index::Prev,
                    Arg::Var(Var::Step) => Index::Step,
                    other => Index::Value(other),
                };
                if let Some((_, vals)) = self.arrays.iter().find(|(n, _)| n == array) {
                    let vals: Box<[f64]> = vals.as_slice().into();
                    return eval(move |r| Ok(vals[index.get(r)? % vals.len()]));
                }
                match array.as_str() {
                    "h" => graph(index, Csr::num_edges, |g, i| f64::from(g.prop(i))),
                    "adj" => graph(index, Csr::num_edges, |g, i| f64::from(g.edge_target(i))),
                    "label" => graph(index, Csr::num_edges, |g, i| f64::from(g.label(i))),
                    // Degrees are register-resident in the kernel; clamp
                    // to 1 so `1 / deg[..]` stays finite at sinks
                    // (matching the native workloads' `.max(1)`).
                    "deg" => graph(index, Csr::num_nodes, |g, i| {
                        g.degree(i as u32).max(1) as f64
                    }),
                    _ => fail(),
                }
            }
            // Arguments have no side effects, so a call that cannot
            // resolve fails whatever they evaluate to.
            Expr::Call { name, args } => match (name.as_str(), args.as_slice()) {
                ("max", [a, b]) => bin(ex(a), ex(b), |a, b| f32r(a.max(b))),
                ("min", [a, b]) => bin(ex(a), ex(b), |a, b| f32r(a.min(b))),
                ("abs", [a]) => un(ex(a), |a| f32r(a.abs())),
                ("linked", [a, b]) => {
                    let (a, b) = (ex(a), ex(b));
                    eval(move |r| {
                        let (a, b) = (a.get(r)?, b.get(r)?);
                        Ok(f64::from(r.g.has_edge(a as u32, b as u32)))
                    })
                }
                ("exp", [a]) => un(ex(a), |a| f64::from(a.exp() as f32)),
                _ => fail(),
            },
            Expr::Binary { op, lhs, rhs } => {
                let (a, b) = (ex(lhs), ex(rhs));
                match op {
                    BinOp::Add => bin(a, b, |a, b| f32r(a + b)),
                    BinOp::Sub => bin(a, b, |a, b| f32r(a - b)),
                    BinOp::Mul => bin(a, b, |a, b| f32r(a * b)),
                    BinOp::Div => bin(a, b, |a, b| f32r(a / b)),
                    BinOp::Eq => bin(a, b, |a, b| btf(a == b)),
                    BinOp::Ne => bin(a, b, |a, b| btf(a != b)),
                    BinOp::Lt => bin(a, b, |a, b| btf(a < b)),
                    BinOp::Le => bin(a, b, |a, b| btf(a <= b)),
                    BinOp::Gt => bin(a, b, |a, b| btf(a > b)),
                    BinOp::Ge => bin(a, b, |a, b| btf(a >= b)),
                    BinOp::And => eval(move |r| {
                        Ok(if a.get(r)? == 0.0 {
                            0.0
                        } else {
                            btf(b.get(r)? != 0.0)
                        })
                    }),
                    BinOp::Or => eval(move |r| {
                        Ok(if a.get(r)? != 0.0 {
                            1.0
                        } else {
                            btf(b.get(r)? != 0.0)
                        })
                    }),
                }
            }
            Expr::Unary { op, expr } => match op {
                UnOp::Neg => un(ex(expr), |v| -v),
                UnOp::Not => un(ex(expr), |v| btf(v == 0.0)),
            },
        }
    }
}

fn eval(f: impl Fn(&Run) -> Result<f64, Fail> + Send + Sync + 'static) -> Arg {
    Arg::Eval(Box::new(f))
}

/// An unresolvable name or call: evaluating it fails.
fn fail() -> Arg {
    eval(|_| Err(Fail))
}

/// A unary operation; folded at lower time over a constant.
fn un(a: Arg, f: impl Fn(f64) -> f64 + Send + Sync + 'static) -> Arg {
    match a {
        Arg::Const(v) => Arg::Const(f(v)),
        a => eval(move |r| Ok(f(a.get(r)?))),
    }
}

/// A binary operation; folded at lower time over two constants.
fn bin(a: Arg, b: Arg, f: impl Fn(f64, f64) -> f64 + Send + Sync + 'static) -> Arg {
    match (a, b) {
        (Arg::Const(x), Arg::Const(y)) => Arg::Const(f(x, y)),
        (a, b) => eval(move |r| Ok(f(a.get(r)?, b.get(r)?))),
    }
}

/// A graph-backed array read of length `len`, failing out of range like
/// the interpreter.
fn graph(
    index: Index,
    len: impl Fn(&Csr) -> usize + Send + Sync + 'static,
    get: impl Fn(&Csr, usize) -> f64 + Send + Sync + 'static,
) -> Arg {
    eval(move |r| {
        let i = index.get(r)?;
        if i < len(r.g) {
            Ok(get(r.g, i))
        } else {
            Err(Fail)
        }
    })
}

/// A failed evaluation.
struct Fail;

impl Arg {
    #[inline(always)]
    fn get(&self, r: &Run) -> Result<f64, Fail> {
        match self {
            Arg::Const(v) => Ok(*v),
            Arg::Var(v) => Ok(r.var(*v)),
            Arg::Slot(s) => Ok(r.slots[*s]),
            Arg::Eval(e) => e(r),
        }
    }
}

impl Index {
    #[inline(always)]
    fn get(&self, r: &Run) -> Result<usize, Fail> {
        Ok(match self {
            Index::Edge => r.edge,
            Index::Cur => r.st.cur as usize,
            Index::Prev => r.st.prev.unwrap_or(r.st.cur) as usize,
            Index::Step => r.st.step,
            Index::Value(a) => a.get(r)?.max(0.0) as usize,
        })
    }
}

/// One weight evaluation: the walk context and the local frame.
struct Run<'a> {
    g: &'a Csr,
    st: &'a WalkState,
    edge: EdgeId,
    slots: &'a mut [f64],
    /// Bit `i` is set once slot `i` has been assigned.
    assigned: &'a mut [u64],
}

impl Run<'_> {
    fn exec(&mut self, ops: &[Op]) -> Result<Option<f64>, Fail> {
        for op in ops {
            match op {
                Op::Set(slot, value) => {
                    self.slots[*slot] = value.get(self)?;
                    self.assigned[slot / 64] |= 1 << (slot % 64);
                }
                Op::Return(value) => return value.get(self).map(Some),
                Op::If(cond, then_ops, else_ops) => {
                    let branch = if cond.get(self)? != 0.0 {
                        then_ops
                    } else {
                        else_ops
                    };
                    if let Some(v) = self.exec(branch)? {
                        return Ok(Some(v));
                    }
                }
                Op::While(cond, body) => {
                    let mut iters = 0usize;
                    while cond.get(self)? != 0.0 {
                        iters += 1;
                        if iters > MAX_LOOP_ITERS {
                            return Err(Fail);
                        }
                        if let Some(v) = self.exec(body)? {
                            return Ok(Some(v));
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    fn var(&self, v: Var) -> f64 {
        let st = self.st;
        match v {
            Var::Edge => self.edge as f64,
            Var::Cur => f64::from(st.cur),
            Var::Prev => f64::from(st.prev.unwrap_or(st.cur)),
            Var::HasPrev => btf(st.prev.is_some()),
            Var::Step => st.step as f64,
            Var::EdgeTime => self.g.time(self.edge) as f64,
            Var::WalkTime => st.time as f64,
        }
    }
}

/// Rounds an arithmetic result to f32, as a native f32 walker would.
fn f32r(v: f64) -> f64 {
    f64::from(v as f32)
}

fn btf(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests: the kernel against `interpret_f32`, the
    //! reference semantics, bit for bit (a failed interpretation is 0.0).

    use super::*;
    use crate::walker::{WalkerDef, WalkerRegistry};
    use flexi_compiler::{interpret_f32, workloads, InterpEnv};
    use flexi_graph::{gen, NodeId, WeightModel};
    use flexi_rng::SplitMix64;

    /// The environment a DSL walker's program sees, name by name.
    struct Oracle<'a> {
        g: &'a Csr,
        st: &'a WalkState,
        edge: EdgeId,
        hyperparams: &'a [(String, f64)],
        arrays: &'a [(String, Vec<f64>)],
    }

    impl InterpEnv for Oracle<'_> {
        fn var(&self, name: &str) -> Option<f64> {
            match name {
                "edge" => Some(self.edge as f64),
                "cur" => Some(f64::from(self.st.cur)),
                "prev" => Some(f64::from(self.st.prev.unwrap_or(self.st.cur))),
                "has_prev" => Some(if self.st.prev.is_some() { 1.0 } else { 0.0 }),
                "step" | "iter" => Some(self.st.step as f64),
                "edge_time" => Some(self.g.time(self.edge) as f64),
                "walk_time" => Some(self.st.time as f64),
                _ => self
                    .hyperparams
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v),
            }
        }

        fn index(&self, array: &str, index: f64) -> Option<f64> {
            let i = index.max(0.0) as usize;
            if let Some((_, vals)) = self.arrays.iter().find(|(n, _)| n == array) {
                return Some(vals[i % vals.len()]);
            }
            let g = self.g;
            match array {
                "h" if i < g.num_edges() => Some(f64::from(g.prop(i))),
                "adj" if i < g.num_edges() => Some(f64::from(g.edge_target(i))),
                "label" if i < g.num_edges() => Some(f64::from(g.label(i))),
                "deg" if i < g.num_nodes() => Some(g.degree(i as u32).max(1) as f64),
                _ => None,
            }
        }

        fn call(&self, name: &str, args: &[f64]) -> Option<f64> {
            match (name, args) {
                ("linked", [a, b]) => Some(f64::from(self.g.has_edge(*a as u32, *b as u32))),
                ("exp", [x]) => Some(f64::from(x.exp() as f32)),
                _ => None,
            }
        }
    }

    fn interpreted(
        p: &Program,
        hyperparams: &[(String, f64)],
        arrays: &[(String, Vec<f64>)],
        g: &Csr,
        st: &WalkState,
        edge: EdgeId,
    ) -> Result<f64, String> {
        let env = Oracle {
            g,
            st,
            edge,
            hyperparams,
            arrays,
        };
        interpret_f32(p, &env)
    }

    /// A small R-MAT graph with weights, labels in 0..5 and timestamps in
    /// 0..1000; R-MAT's skew leaves sinks.
    fn graph() -> Csr {
        let g = WeightModel::UniformReal.apply(gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 3), 3);
        let mut rng = SplitMix64::new(4);
        let m = g.num_edges();
        let labels = (0..m).map(|_| rng.bounded(5) as u8).collect();
        let times = (0..m).map(|_| rng.bounded(1000)).collect();
        g.with_labels(labels).unwrap().with_times(times).unwrap()
    }

    /// Walk states along random walks, each with three variants: a first
    /// step, a `prev` that is an out-neighbor of `cur` (so one edge
    /// revisits it), and a sink `prev` (`deg[prev]` clamps to 1).
    fn states(g: &Csr) -> Vec<WalkState> {
        let mut rng = SplitMix64::new(5);
        let n = g.num_nodes() as u64;
        let sink = (0..g.num_nodes() as NodeId)
            .find(|&v| g.degree(v) == 0)
            .expect("R-MAT leaves sinks");
        let mut out = Vec::new();
        while out.len() < 400 {
            let mut st = WalkState::start_at(rng.bounded(n) as NodeId, rng.bounded(1000));
            while g.degree(st.cur) > 0 && st.step < 12 {
                let first = WalkState::start_at(st.cur, st.time);
                let back = g.neighbor(st.cur, rng.bounded(g.degree(st.cur) as u64) as usize);
                let revisit = WalkState {
                    prev: Some(back),
                    ..st
                };
                let sunk = WalkState {
                    prev: Some(sink),
                    ..st
                };
                out.extend([st, first, revisit, sunk]);
                let e = g.edge_range(st.cur).start + rng.bounded(g.degree(st.cur) as u64) as usize;
                st.advance_at(g.edge_target(e), g.time(e));
            }
        }
        assert!(out.iter().any(|s| s.step >= 5), "schema wraps");
        out
    }

    #[test]
    fn kernel_matches_interpreter_on_canonical_and_builtin_walkers() {
        let g = graph();
        let states = states(&g);
        let schema = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let mut defs: Vec<WalkerDef> = workloads::BUILTIN_SPEC_NAMES
            .iter()
            .chain(&workloads::TEMPORAL_SPEC_NAMES)
            .map(|name| {
                WalkerDef::spec(*name, workloads::builtin_spec(name).unwrap())
                    .array("schema", schema.clone())
            })
            .collect();
        defs.extend(WalkerRegistry::builtin_dsl().iter().cloned());
        assert_eq!(defs.len(), 15);
        let mut evaluated = 0;
        for def in &defs {
            let cw = def.lower().unwrap();
            let program = flexi_compiler::parse_program(&cw.spec().source).unwrap();
            for st in &states {
                for e in g.edge_range(st.cur) {
                    let want = interpreted(&program, &cw.spec().hyperparams, &def.arrays, &g, st, e)
                        .unwrap_or(0.0) as f32;
                    let got = cw.walk_dyn().weight(&g, st, e);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{}: {st:?} edge {e}: kernel {got}, interpreter {want}",
                        def.name()
                    );
                    evaluated += 1;
                }
            }
        }
        assert!(evaluated > 50_000, "{evaluated} evaluations");
    }

    /// Hyperparameters of the random programs: NaN and infinity propagate,
    /// and `cur` is shadowed by the walk-state variable.
    fn random_hyperparams() -> Vec<(String, f64)> {
        [
            ("a", 2.0),
            ("b", 0.1),
            ("nan_k", f64::NAN),
            ("inf_k", f64::INFINITY),
            ("cur", 99.0),
        ]
        .map(|(n, v)| (n.to_string(), v))
        .to_vec()
    }

    fn random_arrays() -> Vec<(String, Vec<f64>)> {
        vec![
            ("schema".into(), vec![0.0, 1.0, 2.0, 3.0, 4.0]),
            ("w".into(), vec![f64::NAN, f64::INFINITY, -1.5, 0.1]),
        ]
    }

    /// A seeded generator of random `get_weight` programs over the names
    /// above, plus unresolvable ones.
    struct ProgramGen {
        rng: SplitMix64,
        nodes: usize,
        edges: usize,
        runaway: bool,
        /// Locals assigned earlier in the program text (not necessarily
        /// on every path).
        seen: Vec<&'static str>,
    }

    /// Assigned names: `edge` and `a` fall back to the environment when
    /// read unassigned; the others fail.
    const LOCALS: [&str; 5] = ["x", "y", "z", "edge", "a"];
    const FREES: [&str; 12] = [
        "edge",
        "cur",
        "prev",
        "has_prev",
        "step",
        "iter",
        "edge_time",
        "walk_time",
        "a",
        "b",
        "nan_k",
        "inf_k",
    ];
    const ARRAYS: [&str; 7] = ["h", "adj", "label", "deg", "schema", "w", "ghost"];
    const OPS: [BinOp; 12] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
    ];

    impl ProgramGen {
        fn pick(&mut self, n: usize) -> usize {
            self.rng.bounded(n as u64) as usize
        }

        fn var(name: &str) -> Expr {
            Expr::Var(name.into())
        }

        fn num(&mut self) -> Expr {
            let (n, m) = (self.nodes as f64, self.edges as f64);
            let pool = [
                0.0,
                1.0,
                -1.0,
                0.5,
                0.1,
                3.0,
                1e30,
                -1e30,
                16_777_217.0,
                1e-40,
                f64::NAN,
                n - 1.0,
                n,
                m - 1.0,
                m,
                m + 5.0,
            ];
            Expr::Num(pool[self.pick(pool.len())])
        }

        fn leaf(&mut self) -> Expr {
            match self.pick(30) {
                0 => Self::var("ghost"),
                1..=8 => self.num(),
                9..=14 if !self.seen.is_empty() => {
                    let i = self.pick(self.seen.len());
                    Self::var(self.seen[i])
                }
                15 => Self::var(LOCALS[self.pick(LOCALS.len())]),
                _ => Self::var(FREES[self.pick(FREES.len())]),
            }
        }

        /// A node id, or a failed `adj` read: `linked` arguments must not
        /// run past the node range (the graph would panic, interpreted or
        /// compiled).
        fn node(&mut self) -> Expr {
            match self.pick(4) {
                0 => Self::var("cur"),
                1 => Self::var("prev"),
                2 => Expr::Num(self.pick(self.nodes) as f64),
                _ => Expr::Index {
                    array: "adj".into(),
                    index: Box::new(self.expr(1)),
                },
            }
        }

        fn expr(&mut self, depth: usize) -> Expr {
            if depth == 0 {
                return self.leaf();
            }
            let sub = |g: &mut Self| Box::new(g.expr(depth - 1));
            match self.pick(12) {
                0 | 1 => self.leaf(),
                2 | 3 => Expr::Index {
                    array: ARRAYS[self.pick(ARRAYS.len())].into(),
                    index: sub(self),
                },
                4 => {
                    let (name, arity) = [
                        ("max", 2),
                        ("min", 2),
                        ("abs", 1),
                        ("exp", 1),
                        ("max", 2),
                        ("min", 2),
                        ("max", 1),
                        ("summon", 1),
                    ][self.pick(8)];
                    let args = (0..arity).map(|_| self.expr(depth - 1)).collect();
                    Expr::Call {
                        name: name.into(),
                        args,
                    }
                }
                5 => Expr::Call {
                    name: "linked".into(),
                    args: vec![self.node(), self.node()],
                },
                6 => Expr::Unary {
                    op: if self.pick(2) == 0 {
                        UnOp::Neg
                    } else {
                        UnOp::Not
                    },
                    expr: sub(self),
                },
                _ => Expr::Binary {
                    op: OPS[self.pick(OPS.len())],
                    lhs: sub(self),
                    rhs: sub(self),
                },
            }
        }

        fn block(&mut self, depth: usize) -> Vec<Stmt> {
            let len = 1 + self.pick(3);
            let mut out = Vec::new();
            for _ in 0..len {
                match self.pick(if depth == 0 { 2 } else { 5 }) {
                    0 => {
                        let value = self.expr(3);
                        let name = LOCALS[self.pick(LOCALS.len())];
                        self.seen.push(name);
                        out.push(Stmt::Assign {
                            name: name.into(),
                            value,
                        });
                    }
                    1 => out.push(Stmt::Return(self.expr(2))),
                    2 | 3 => out.push(Stmt::If {
                        cond: self.expr(3),
                        then_branch: self.block(depth - 1),
                        else_branch: if self.pick(2) == 0 {
                            Vec::new()
                        } else {
                            self.block(depth - 1)
                        },
                    }),
                    // A bounded loop over its own counter.
                    _ => {
                        let counter = format!("i{depth}");
                        let mut body = self.block(depth - 1);
                        body.push(Stmt::Assign {
                            name: counter.clone(),
                            value: Expr::Binary {
                                op: BinOp::Add,
                                lhs: Box::new(Self::var(&counter)),
                                rhs: Box::new(Expr::Num(1.0)),
                            },
                        });
                        out.push(Stmt::Assign {
                            name: counter.clone(),
                            value: Expr::Num(0.0),
                        });
                        out.push(Stmt::While {
                            cond: Expr::Binary {
                                op: BinOp::Lt,
                                lhs: Box::new(Self::var(&counter)),
                                rhs: Box::new(Expr::Num(self.pick(4) as f64)),
                            },
                            body,
                        });
                    }
                }
            }
            out
        }

        fn program(&mut self) -> Program {
            self.seen.clear();
            let mut body = Vec::new();
            self.runaway = self.pick(60) == 0;
            if self.runaway {
                body.push(Stmt::While {
                    cond: Expr::Num(1.0),
                    body: vec![Stmt::Assign {
                        name: "spin".into(),
                        value: Expr::Num(1.0),
                    }],
                });
            }
            body.extend(self.block(3));
            // Some programs end without a return.
            if self.pick(5) != 0 {
                body.push(Stmt::Return(self.expr(3)));
            }
            Program {
                name: "get_weight".into(),
                params: vec!["edge".into()],
                body,
            }
        }
    }

    #[test]
    fn kernel_matches_interpreter_on_random_programs() {
        const PROGRAMS: usize = 2_000;
        let g = graph();
        let states = states(&g);
        let (hyperparams, arrays) = (random_hyperparams(), random_arrays());
        let mut gen = ProgramGen {
            rng: SplitMix64::new(0xD5_1C0DE),
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            runaway: false,
            seen: Vec::new(),
        };
        let mut rng = SplitMix64::new(6);
        // Outcome tally: the generator must reach every failure mode and
        // non-finite values, not just agree on easy cases.
        let mut tally = std::collections::BTreeMap::<&str, usize>::new();
        for i in 0..PROGRAMS {
            let program = gen.program();
            let kernel = Kernel::compile(&program, &hyperparams, &arrays);
            // A runaway loop costs 100 000 iterations per evaluation.
            for _ in 0..if gen.runaway { 1 } else { 8 } {
                let st = &states[rng.bounded(states.len() as u64) as usize];
                let e = g.edge_range(st.cur).start + rng.bounded(g.degree(st.cur) as u64) as usize;
                let interp = interpreted(&program, &hyperparams, &arrays, &g, st, e);
                let kind = match &interp {
                    Ok(v) if v.is_nan() => "nan",
                    Ok(v) if v.is_infinite() => "inf",
                    Ok(_) => "value",
                    Err(m) if m.contains("unknown variable") => "unassigned or unbound",
                    Err(m) if m.contains("unknown array") => "index out of range",
                    Err(m) if m.contains("unknown function") => "unknown call",
                    Err(m) if m.contains("no value") => "missing return",
                    Err(m) if m.contains("loop") => "runaway loop",
                    Err(_) => "other error",
                };
                *tally.entry(kind).or_default() += 1;
                let want = interp.unwrap_or(0.0) as f32;
                let got = kernel.weight(&g, st, e);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "program {i} at {st:?} edge {e}: kernel {got}, interpreter {want}\n\
                     {program:#?}"
                );
            }
        }
        for kind in [
            "nan",
            "inf",
            "value",
            "unassigned or unbound",
            "index out of range",
            "unknown call",
            "missing return",
            "runaway loop",
        ] {
            assert!(tally.get(kind).is_some_and(|&n| n > 0), "{kind}: {tally:?}");
        }
    }

    #[test]
    fn locals_beyond_the_stack_frame_and_maybe_unassigned_reads() {
        // 70 locals: a heap frame and a two-word assigned mask. `v69` is
        // assigned only when `has_prev` holds, so its read falls back to
        // the (unbound) environment on first steps and fails there; `edge`
        // falls back to the edge id.
        let mut src = String::from("get_weight(edge) { v0 = h[edge]; ");
        for i in 1..69 {
            src += &format!("v{i} = v{} + 1; ", i - 1);
        }
        src += "if (has_prev) { v69 = v68 * 2; edge = 0; } \
                if (step > 3) return v69 + edge; return v69;}";
        let program = flexi_compiler::parse_program(&src).unwrap();
        let kernel = Kernel::compile(&program, &[], &[]);
        assert_eq!(kernel.locals, 71);
        let g = graph();
        let mut outcomes = std::collections::BTreeSet::new();
        for st in states(&g).iter().take(60) {
            for e in g.edge_range(st.cur) {
                let interp = interpreted(&program, &[], &[], &g, st, e);
                outcomes.insert(interp.is_ok());
                let want = interp.unwrap_or(0.0) as f32;
                assert_eq!(kernel.weight(&g, st, e).to_bits(), want.to_bits());
            }
        }
        assert_eq!(
            outcomes.len(),
            2,
            "both the assigned and the failed read ran"
        );
    }

    #[test]
    fn short_circuit_skips_a_failing_operand() {
        let g = graph();
        let st = WalkState::start(0);
        let e = g.edge_range(0).start;
        for (src, want) in [
            ("get_weight(edge) { return 0 && h[100000000]; }", 0.0),
            ("get_weight(edge) { return 1 || ghost; }", 1.0),
            ("get_weight(edge) { return 1 && ghost; }", 0.0),
            ("get_weight(edge) { if (0 || 2) return 3; return 4; }", 3.0),
        ] {
            let program = flexi_compiler::parse_program(src).unwrap();
            let kernel = Kernel::compile(&program, &[], &[]);
            assert_eq!(kernel.weight(&g, &st, e), want, "{src}");
        }
    }

    #[test]
    fn user_arrays_shadow_graph_arrays() {
        let g = graph();
        let st = WalkState::start(0);
        let arrays = vec![("h".to_string(), vec![7.0, 8.0])];
        let program = flexi_compiler::parse_program("get_weight(edge) { return h[3]; }").unwrap();
        let kernel = Kernel::compile(&program, &[], &arrays);
        let e = g.edge_range(0).start;
        let interp = interpreted(&program, &[], &arrays, &g, &st, e).unwrap() as f32;
        assert_eq!(
            kernel.weight(&g, &st, e),
            8.0,
            "h[3] wraps to the user array's [1]"
        );
        assert_eq!(interp, 8.0);
    }

    #[test]
    fn loop_cap_matches_the_interpreter_at_the_boundary() {
        let g = graph();
        let st = WalkState::start(0);
        let e = g.edge_range(0).start;
        // MAX_LOOP_ITERS body runs are allowed; the next true test fails.
        for (bound, want) in [
            (MAX_LOOP_ITERS, MAX_LOOP_ITERS as f32),
            (MAX_LOOP_ITERS + 1, 0.0),
        ] {
            let src = format!(
                "get_weight(edge) {{ i = 0; while (i < {bound}) {{ i = i + 1; }} return i; }}"
            );
            let program = flexi_compiler::parse_program(&src).unwrap();
            let kernel = Kernel::compile(&program, &[], &[]);
            let interp = interpreted(&program, &[], &[], &g, &st, e).unwrap_or(0.0) as f32;
            assert_eq!(kernel.weight(&g, &st, e), want, "bound {bound}");
            assert_eq!(interp, want, "bound {bound}");
        }
    }
}
