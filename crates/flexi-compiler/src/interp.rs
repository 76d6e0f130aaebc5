//! Direct interpreter for the walk mini-language.
//!
//! Executes a parsed `get_weight` with full runtime context. It is the
//! reference semantics of the language: the test-suite uses it to prove
//! that the DSL sources in [`crate::workloads`] compute *exactly* the same
//! transition weights as the hand-written Rust workloads in `flexi-core`,
//! and that the slot-resolved kernels `flexi-core` compiles DSL walkers
//! into agree with [`interpret_f32`] bit for bit. Walks never run through
//! it.

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use std::collections::HashMap;

/// Runtime context the interpreter queries for non-local values.
pub trait InterpEnv {
    /// Free variable lookup (`edge`, `prev`, `step`, hyperparameters, …).
    fn var(&self, name: &str) -> Option<f64>;

    /// Array lookup `array[index]` (e.g. `h`, `adj`, `label`, `deg`,
    /// `schema`).
    fn index(&self, array: &str, index: f64) -> Option<f64>;

    /// Non-builtin calls (`linked(a, b)` returning 0/1, …). `max`, `min`,
    /// `abs` are handled internally and never reach this hook.
    fn call(&self, name: &str, args: &[f64]) -> Option<f64>;
}

/// Iteration cap for `while` loops so hostile inputs cannot hang tests.
pub const MAX_LOOP_ITERS: usize = 100_000;

/// Arithmetic precision the interpreter evaluates in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// Full f64 arithmetic (the analysis/testing default).
    F64,
    /// Every arithmetic result is rounded to f32 before it flows on —
    /// matching a hand-written f32 `DynamicWalk::weight` op for op, which
    /// is what makes DSL-defined walkers bit-identical to their native
    /// twins. Comparisons and raw variable/array reads stay exact, so
    /// node ids above 2²⁴ are not corrupted.
    F32,
}

/// Runs `get_weight` and returns its value.
///
/// # Errors
///
/// Returns a descriptive message on unknown identifiers, missing returns,
/// or runaway loops.
pub fn interpret(p: &Program, env: &dyn InterpEnv) -> Result<f64, String> {
    interpret_with(p, env, Precision::F64)
}

/// [`interpret`] with f32-rounded arithmetic — the walker-lowering
/// pipeline's evaluation mode (see [`Precision::F32`]).
///
/// # Errors
///
/// As [`interpret`].
pub fn interpret_f32(p: &Program, env: &dyn InterpEnv) -> Result<f64, String> {
    interpret_with(p, env, Precision::F32)
}

/// Runs `get_weight` at the given arithmetic precision.
///
/// # Errors
///
/// As [`interpret`].
pub fn interpret_with(p: &Program, env: &dyn InterpEnv, prec: Precision) -> Result<f64, String> {
    let mut locals = HashMap::new();
    match exec_block(&p.body, &mut locals, env, prec)? {
        Some(v) => Ok(v),
        None => Err("get_weight returned no value".into()),
    }
}

fn exec_block(
    stmts: &[Stmt],
    locals: &mut HashMap<String, f64>,
    env: &dyn InterpEnv,
    prec: Precision,
) -> Result<Option<f64>, String> {
    for s in stmts {
        match s {
            Stmt::Assign { name, value } => {
                let v = eval(value, locals, env, prec)?;
                locals.insert(name.clone(), v);
            }
            Stmt::Return(e) => return Ok(Some(eval(e, locals, env, prec)?)),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = eval(cond, locals, env, prec)?;
                let branch = if c != 0.0 { then_branch } else { else_branch };
                if let Some(v) = exec_block(branch, locals, env, prec)? {
                    return Ok(Some(v));
                }
            }
            Stmt::While { cond, body } => {
                let mut iters = 0usize;
                while eval(cond, locals, env, prec)? != 0.0 {
                    iters += 1;
                    if iters > MAX_LOOP_ITERS {
                        return Err(format!("loop exceeded {MAX_LOOP_ITERS} iterations"));
                    }
                    if let Some(v) = exec_block(body, locals, env, prec)? {
                        return Ok(Some(v));
                    }
                }
            }
        }
    }
    Ok(None)
}

/// Rounds an arithmetic result according to the precision mode.
fn quantize(v: f64, prec: Precision) -> f64 {
    match prec {
        Precision::F64 => v,
        Precision::F32 => f64::from(v as f32),
    }
}

fn eval(
    e: &Expr,
    locals: &HashMap<String, f64>,
    env: &dyn InterpEnv,
    prec: Precision,
) -> Result<f64, String> {
    match e {
        Expr::Num(n) => Ok(*n),
        Expr::Var(name) => locals
            .get(name)
            .copied()
            .or_else(|| env.var(name))
            .ok_or_else(|| format!("unknown variable {name:?}")),
        Expr::Index { array, index } => {
            let i = eval(index, locals, env, prec)?;
            env.index(array, i)
                .ok_or_else(|| format!("unknown array {array:?} or index {i}"))
        }
        Expr::Call { name, args } => {
            let vals: Result<Vec<f64>, String> =
                args.iter().map(|a| eval(a, locals, env, prec)).collect();
            let vals = vals?;
            match (name.as_str(), vals.as_slice()) {
                ("max", [a, b]) => Ok(quantize(a.max(*b), prec)),
                ("min", [a, b]) => Ok(quantize(a.min(*b), prec)),
                ("abs", [a]) => Ok(quantize(a.abs(), prec)),
                _ => env
                    .call(name, &vals)
                    .ok_or_else(|| format!("unknown function {name:?}")),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = eval(lhs, locals, env, prec)?;
            // Short-circuit booleans.
            match op {
                BinOp::And if a == 0.0 => return Ok(0.0),
                BinOp::Or if a != 0.0 => return Ok(1.0),
                _ => {}
            }
            let b = eval(rhs, locals, env, prec)?;
            Ok(match op {
                BinOp::Add => quantize(a + b, prec),
                BinOp::Sub => quantize(a - b, prec),
                BinOp::Mul => quantize(a * b, prec),
                BinOp::Div => quantize(a / b, prec),
                BinOp::Eq => btf(a == b),
                BinOp::Ne => btf(a != b),
                BinOp::Lt => btf(a < b),
                BinOp::Le => btf(a <= b),
                BinOp::Gt => btf(a > b),
                BinOp::Ge => btf(a >= b),
                BinOp::And => btf(b != 0.0),
                BinOp::Or => btf(b != 0.0),
            })
        }
        Expr::Unary { op, expr } => {
            let v = eval(expr, locals, env, prec)?;
            Ok(match op {
                UnOp::Neg => -v,
                UnOp::Not => btf(v == 0.0),
            })
        }
    }
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
    use super::*;
    use crate::parser::parse_program;

    struct MapEnv {
        vars: HashMap<String, f64>,
        arrays: HashMap<String, Vec<f64>>,
        linked: fn(f64, f64) -> bool,
    }

    impl MapEnv {
        fn new() -> Self {
            Self {
                vars: HashMap::new(),
                arrays: HashMap::new(),
                linked: |_, _| false,
            }
        }
    }

    impl InterpEnv for MapEnv {
        fn var(&self, name: &str) -> Option<f64> {
            self.vars.get(name).copied()
        }
        fn index(&self, array: &str, index: f64) -> Option<f64> {
            self.arrays.get(array)?.get(index as usize).copied()
        }
        fn call(&self, name: &str, args: &[f64]) -> Option<f64> {
            match (name, args) {
                ("linked", [a, b]) => Some(if (self.linked)(*a, *b) { 1.0 } else { 0.0 }),
                _ => None,
            }
        }
    }

    #[test]
    fn runs_node2vec_all_branches() {
        let p = parse_program(crate::workloads::NODE2VEC_WEIGHTED).unwrap();
        let mut env = MapEnv::new();
        env.vars.insert("a".into(), 2.0);
        env.vars.insert("b".into(), 0.5);
        env.vars.insert("has_prev".into(), 1.0);
        env.vars.insert("prev".into(), 7.0);
        env.vars.insert("edge".into(), 0.0);
        env.arrays.insert("h".into(), vec![6.0]);
        // Branch 1: post == prev.
        env.arrays.insert("adj".into(), vec![7.0]);
        assert_eq!(interpret(&p, &env).unwrap(), 3.0); // 6 / a
                                                       // Branch 2: linked(prev, post).
        env.arrays.insert("adj".into(), vec![9.0]);
        env.linked = |_, _| true;
        assert_eq!(interpret(&p, &env).unwrap(), 6.0);
        // Branch 3: distance 2.
        env.linked = |_, _| false;
        assert_eq!(interpret(&p, &env).unwrap(), 12.0); // 6 / b
                                                        // First step: has_prev guard returns the static weight.
        env.vars.insert("has_prev".into(), 0.0);
        assert_eq!(interpret(&p, &env).unwrap(), 6.0);
    }

    #[test]
    fn f32_precision_rounds_each_arithmetic_op() {
        // 0.1 + 0.2 differs between f64 and step-wise f32 arithmetic.
        let p = parse_program("f() { return x + y; }").unwrap();
        let mut env = MapEnv::new();
        env.vars.insert("x".into(), 0.1);
        env.vars.insert("y".into(), 0.2);
        let exact = interpret(&p, &env).unwrap();
        let rounded = interpret_f32(&p, &env).unwrap();
        assert_eq!(exact, 0.1 + 0.2);
        assert_eq!(rounded, f64::from((0.1f64 + 0.2f64) as f32));
        assert_ne!(exact, rounded);
        // Comparisons stay exact: ids above 2^24 are not corrupted.
        let p = parse_program("f() { if (x == y) return 1.0; else return 0.0; }").unwrap();
        let mut env = MapEnv::new();
        env.vars.insert("x".into(), 16_777_217.0);
        env.vars.insert("y".into(), 16_777_216.0);
        assert_eq!(interpret_f32(&p, &env).unwrap(), 0.0);
    }

    #[test]
    fn while_loops_execute_with_cap() {
        let p = parse_program("f() { x = 0; while (x < 5) { x = x + 1; } return x; }").unwrap();
        let env = MapEnv::new();
        assert_eq!(interpret(&p, &env).unwrap(), 5.0);
    }

    #[test]
    fn runaway_loop_errors() {
        let p = parse_program("f() { x = 0; while (1 == 1) { x = x + 1; } return x; }").unwrap();
        let env = MapEnv::new();
        assert!(interpret(&p, &env).unwrap_err().contains("loop"));
    }

    #[test]
    fn unknown_variable_errors() {
        let p = parse_program("f() { return mystery; }").unwrap();
        assert!(interpret(&p, &MapEnv::new())
            .unwrap_err()
            .contains("mystery"));
    }

    #[test]
    fn unknown_function_errors() {
        let p = parse_program("f() { return summon(1); }").unwrap();
        assert!(interpret(&p, &MapEnv::new())
            .unwrap_err()
            .contains("summon"));
    }

    #[test]
    fn missing_return_errors() {
        let p = parse_program("f() { x = 1; }").unwrap();
        assert!(interpret(&p, &MapEnv::new())
            .unwrap_err()
            .contains("no value"));
    }

    #[test]
    fn short_circuit_evaluation() {
        // Division by zero on the right of && must not be reached.
        let p =
            parse_program("f() { if (0 != 0 && boom[9] > 0) return 1; else return 2; }").unwrap();
        assert_eq!(interpret(&p, &MapEnv::new()).unwrap(), 2.0);
    }

    #[test]
    fn builtins_work() {
        let p = parse_program("f() { return max(1, 2) + min(3, 4) + abs(0 - 5); }").unwrap();
        assert_eq!(interpret(&p, &MapEnv::new()).unwrap(), 10.0);
    }

    #[test]
    fn locals_shadow_env_vars() {
        let p = parse_program("f() { a = 5; return a; }").unwrap();
        let mut env = MapEnv::new();
        env.vars.insert("a".into(), 1.0);
        assert_eq!(interpret(&p, &env).unwrap(), 5.0);
    }
}
