//! Flexi-Compiler: compile-time analysis of user walk logic (paper §4.2).
//!
//! The paper implements this component with Clang LibTooling + LLVM IR over
//! CUDA C++; this crate performs the same passes over an equivalent C-like
//! mini-language (see `DESIGN.md` for the substitution argument):
//!
//! 1. **Parse** the user's `get_weight` function ([`parser`]) into an AST.
//! 2. **Enumerate control-flow paths** ([`analysis`]): every `if/else`
//!    chain contributes one (conditions, return-expression) pair, with
//!    assignments inlined (the *dependency checker* of Fig. 9c).
//! 3. **Allocate flags**: a return value that touches an indexed array
//!    (e.g. `h[edge]`) is `PER_STEP`; pure hyperparameter arithmetic is
//!    `PER_KERNEL` (Fig. 9c's flag allocator).
//! 4. **Generate helpers** ([`codegen`]): `get_weight_max()` — indexed
//!    arrays rebound to their per-node `_MAX` aggregates, maximum over all
//!    path returns; `get_weight_sum()` — arrays rebound to `_SUM`
//!    aggregates, mean over path returns (Eq. 12); plus the list of
//!    `preprocess()` reductions to run (Fig. 9d).
//! 5. **Validate** ([`analysis::validate`]): loops with data-dependent
//!    exits, recursion, or warp intrinsics force the sound fallback to
//!    eRVS-only mode with warnings (§5.2, §7.1).
//!
//! The [`interp`] module executes the parsed `get_weight` directly: it is
//! the reference semantics the test-suite checks the hand-written Rust
//! workloads and `flexi-core`'s compiled DSL kernels against. [`workloads`]
//! ships the paper's five evaluation workloads as DSL sources.

pub mod analysis;
pub mod ast;
pub mod codegen;
pub mod interp;
pub mod parser;
pub mod token;
pub mod workloads;

pub use analysis::{
    enumerate_paths, references, validate, BoundGranularity, PathInfo, RefInfo, Validation,
};
pub use ast::{BinOp, Expr, Program, Stmt, UnOp};
pub use codegen::{AggKind, CompiledWalk, Estimator, EstimatorEnv, PreprocessRequest};
pub use interp::{interpret, interpret_f32, interpret_with, InterpEnv, Precision, MAX_LOOP_ITERS};
pub use parser::parse_program;

/// Errors raised while compiling a walk specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Tokenisation failure.
    Lex(String),
    /// Parse failure.
    Parse(String),
    /// The program has no `return` on some path.
    MissingReturn,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Lex(m) => write!(f, "lex error: {m}"),
            Self::Parse(m) => write!(f, "parse error: {m}"),
            Self::MissingReturn => write!(f, "a control-flow path has no return"),
        }
    }
}

impl std::error::Error for CompileError {}

/// A user-supplied walk specification: `get_weight` source plus fixed
/// hyperparameters (the paper's `init()` contents).
#[derive(Debug, Clone)]
pub struct WalkSpec {
    /// Mini-language source of `get_weight`.
    pub source: String,
    /// Hyperparameter bindings (constant-folded during analysis).
    pub hyperparams: Vec<(String, f64)>,
}

/// Result of compiling a walk: either full support (eRJS enabled via
/// generated estimators) or the sound eRVS-only fallback.
#[derive(Debug)]
pub enum CompileOutcome {
    /// Estimators were generated; eRJS is available.
    Supported(Box<CompiledWalk>),
    /// Analysis detected unsupported constructs; run eRVS-only.
    Fallback {
        /// Human-readable reasons for the fallback.
        warnings: Vec<String>,
    },
}

/// Compiles a walk specification end-to-end.
///
/// # Errors
///
/// Returns [`CompileError`] for malformed source. Unsupported-but-parseable
/// programs are *not* errors; they produce [`CompileOutcome::Fallback`].
pub fn compile(spec: &WalkSpec) -> Result<CompileOutcome, CompileError> {
    let program = parse_program(&spec.source)?;
    let validation = validate(&program);
    if !validation.supported {
        return Ok(CompileOutcome::Fallback {
            warnings: validation.warnings,
        });
    }
    let paths = enumerate_paths(&program, &spec.hyperparams)?;
    match codegen::generate(&program, &paths, &spec.hyperparams) {
        Some(mut compiled) => {
            compiled.warnings.extend(validation.warnings);
            Ok(CompileOutcome::Supported(Box::new(compiled)))
        }
        None => Ok(CompileOutcome::Fallback {
            warnings: vec!["return expressions are not amenable to bound estimation; \
                 falling back to eRVS-only mode"
                .to_string()],
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node2vec_compiles_supported() {
        let spec = WalkSpec {
            source: workloads::NODE2VEC_WEIGHTED.to_string(),
            hyperparams: vec![("a".into(), 2.0), ("b".into(), 0.5)],
        };
        match compile(&spec).unwrap() {
            CompileOutcome::Supported(c) => {
                assert_eq!(c.flag, BoundGranularity::PerStep);
                assert!(!c.paths.is_empty());
            }
            CompileOutcome::Fallback { warnings } => {
                panic!("expected support, fell back: {warnings:?}")
            }
        }
    }

    #[test]
    fn while_loop_falls_back() {
        let spec = WalkSpec {
            source: "get_weight() { x = 0; while (x < h[edge]) { x = x + 1; } return x; }"
                .to_string(),
            hyperparams: vec![],
        };
        match compile(&spec).unwrap() {
            CompileOutcome::Fallback { warnings } => {
                assert!(!warnings.is_empty());
            }
            CompileOutcome::Supported(_) => panic!("loops must force fallback"),
        }
    }

    #[test]
    fn syntax_error_is_reported() {
        let spec = WalkSpec {
            source: "get_weight() { return ; }".to_string(),
            hyperparams: vec![],
        };
        assert!(compile(&spec).is_err());
    }
}
