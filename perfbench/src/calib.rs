//! Host-speed calibration. The benchmark runs on a few cores of a shared
//! host whose speed drifts by tens of percent within a minute (other
//! tenants load the memory system and the sibling hyperthreads). A fixed
//! probe, timed next to each measured unit of work, tracks that drift: a
//! host-timed metric is reported at the reference speed, i.e. divided by
//! the host's slowness (probe seconds ÷ the probe's reference seconds).
//! A change in the program moves the measured work and not the probe, so
//! it shows in full. A change to a probe rescales every host-timed
//! metric: the probes are part of the benchmark's definition.
//!
//! The probes are frozen reference walkers written here, with their own
//! graph and generator and no code of the program under test. Each kind
//! stresses the host as one kind of measured work does, and that work is
//! scaled by it:
//!
//! - [`Probe::Walk`]: weighted walks over a skewed graph that scan each
//!   row twice (weight sum, then inverse-CDF pick), with weights computed
//!   inline. Memory-latency bound, like the built-in walkers.
//! - [`Probe::InterpretedWalk`]: the same walks with each edge weight
//!   computed by a small tree-walking interpreter with string-keyed
//!   locals. Core and allocator bound, like the DSL walkers.
//!
//! Set-up and updates (graph copies) are read with [`Probe::Walk`] too: a
//! probe that copies into fresh allocations varied 2x by itself, with the
//! allocator's choice between reusing memory and mapping fresh pages.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes of the probe graph.
const NODES: usize = 1 << 16;
/// Edges per node (on average; sources are skewed).
const DEGREE: usize = 8;
/// Steps per probe walk.
const STEPS: usize = 20;
/// A unit of work is scaled by the median of the probes taken from this
/// long before it starts to this long after it ends: a few dozen probes,
/// over a span shorter than the host's drifts.
const SPAN: Duration = Duration::from_millis(500);

/// What a probe does (see the module documentation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Probe {
    Walk,
    InterpretedWalk,
}

impl Probe {
    /// Walks per probe: about 2 ms of work on the reference host.
    fn walks(self) -> usize {
        match self {
            Probe::Walk => 1024,
            Probe::InterpretedWalk => 40,
        }
    }

    /// Probe seconds on the reference host: a metric is reported as if
    /// every probe had taken this long.
    fn reference_s(self) -> f64 {
        match self {
            Probe::Walk => 2.0e-3,
            Probe::InterpretedWalk => 2.5e-3,
        }
    }
}

/// The interpreted weight function's expression tree.
enum Expr {
    Num(f64),
    Var(&'static str),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `let name = value in body`.
    Let(&'static str, Box<Expr>, Box<Expr>),
}

#[derive(Clone, Copy)]
enum BinOp {
    Mul,
    Eq,
    Lt,
}

impl Expr {
    /// node2vec-shaped: `let back = dst == prev in let near = dst < prev
    /// in if back { w * 2 } else if near { w } else { w * 0.5 }`.
    fn weight_program() -> Self {
        use Expr::*;
        let b = Box::new;
        let bin = |op, l, r| Bin(op, b(l), b(r));
        Let(
            "back",
            b(bin(BinOp::Eq, Var("dst"), Var("prev"))),
            b(Let(
                "near",
                b(bin(BinOp::Lt, Var("dst"), Var("prev"))),
                b(If(
                    b(Var("back")),
                    b(bin(BinOp::Mul, Var("w"), Num(2.0))),
                    b(If(
                        b(Var("near")),
                        b(Var("w")),
                        b(bin(BinOp::Mul, Var("w"), Num(0.5))),
                    )),
                )),
            )),
        )
    }

    fn eval(&self, locals: &mut HashMap<String, f64>, env: &[(&str, f64); 3]) -> f64 {
        match self {
            Expr::Num(n) => *n,
            Expr::Var(name) => locals
                .get(*name)
                .copied()
                .unwrap_or_else(|| env.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)),
            Expr::Bin(op, l, r) => {
                let (l, r) = (l.eval(locals, env), r.eval(locals, env));
                let truth = |t: bool| if t { 1.0 } else { 0.0 };
                match op {
                    BinOp::Mul => l * r,
                    BinOp::Eq => truth(l == r),
                    BinOp::Lt => truth(l < r),
                }
            }
            Expr::If(c, t, f) => {
                if c.eval(locals, env) != 0.0 {
                    t.eval(locals, env)
                } else {
                    f.eval(locals, env)
                }
            }
            Expr::Let(name, value, body) => {
                let v = value.eval(locals, env);
                locals.insert(name.to_string(), v);
                body.eval(locals, env)
            }
        }
    }
}

/// xorshift64*: the probe's own generator.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (((self.next() >> 32) * n as u64) >> 32) as usize
    }

    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// A probe and its graph (CSR, the same in every run).
pub struct Calibration {
    row: Vec<u32>,
    col: Vec<u32>,
    weight: Vec<f32>,
    kind: Probe,
    program: Expr,
}

impl Calibration {
    pub fn new(kind: Probe) -> Self {
        let mut rng = Xs(0x5EED_CA1B_0000_0001);
        // Source = NODES * u1 * u2: a few hubs, a long tail of small rows.
        let edges: Vec<(u32, u32)> = (0..NODES * DEGREE)
            .map(|_| {
                let src = (rng.unit() * rng.unit() * NODES as f32) as usize % NODES;
                (src as u32, rng.below(NODES) as u32)
            })
            .collect();
        let mut row = vec![0u32; NODES + 1];
        for &(s, _) in &edges {
            row[s as usize + 1] += 1;
        }
        for v in 0..NODES {
            row[v + 1] += row[v];
        }
        let mut fill = row.clone();
        let mut col = vec![0u32; edges.len()];
        for &(s, d) in &edges {
            col[fill[s as usize] as usize] = d;
            fill[s as usize] += 1;
        }
        let weight = (0..edges.len()).map(|_| 1.0 + 4.0 * rng.unit()).collect();
        Self {
            row,
            col,
            weight,
            kind,
            program: Expr::weight_program(),
        }
    }

    pub fn kind(&self) -> Probe {
        self.kind
    }

    /// Seconds of one probe on the calling thread.
    fn probe(&self) -> f64 {
        let t = Instant::now();
        black_box(self.walks());
        t.elapsed().as_secs_f64()
    }

    /// The probe walks; returns a sum over the nodes visited.
    fn walks(&self) -> u64 {
        let mut rng = Xs(0xCA1B_0000_0000_0002);
        let mut locals = HashMap::new();
        let mut acc = 0u64;
        for _ in 0..self.kind.walks() {
            let (mut prev, mut v) = (u32::MAX, rng.below(NODES) as u32);
            for _ in 0..STEPS {
                let (a, b) = (
                    self.row[v as usize] as usize,
                    self.row[v as usize + 1] as usize,
                );
                if a == b {
                    break;
                }
                // node2vec-style bias: returning to `prev` weighs double.
                let mut bias = |e: usize| {
                    if self.kind == Probe::Walk {
                        self.weight[e] * if self.col[e] == prev { 2.0 } else { 1.0 }
                    } else {
                        locals.clear();
                        let env = [
                            ("w", f64::from(self.weight[e])),
                            ("dst", f64::from(self.col[e])),
                            ("prev", f64::from(prev)),
                        ];
                        self.program.eval(&mut locals, &env) as f32
                    }
                };
                let total: f32 = (a..b).map(&mut bias).sum();
                let mut x = rng.unit() * total;
                let mut pick = b - 1;
                for e in a..b {
                    x -= bias(e);
                    if x <= 0.0 {
                        pick = e;
                        break;
                    }
                }
                prev = v;
                v = self.col[pick];
                acc += u64::from(v);
            }
        }
        acc
    }

    /// The host's current slowness as `threads` threads see it at once:
    /// the mean probe seconds over `threads` concurrent probes, ÷ the
    /// reference probe seconds. Divide a host-timed duration by it (multiply a
    /// rate) to get the value at the reference speed.
    pub fn slowness(&self, threads: usize) -> f64 {
        let secs: f64 = if threads <= 1 {
            self.probe()
        } else {
            std::thread::scope(|s| {
                let probes: Vec<_> = (0..threads).map(|_| s.spawn(|| self.probe())).collect();
                probes
                    .into_iter()
                    .map(|p| p.join().expect("probe thread"))
                    .sum::<f64>()
                    / threads as f64
            })
        };
        secs / self.kind.reference_s()
    }
}

/// Slowness readings in the order taken, each with the time it was taken.
#[derive(Default)]
pub struct Readings(Vec<(Instant, f64)>);

impl Readings {
    /// Takes one reading on `threads` threads.
    pub fn take(&mut self, cal: &Calibration, threads: usize) {
        let slowness = cal.slowness(threads);
        self.0.push((Instant::now(), slowness));
    }

    /// The slowness to scale work done from `from` to `to` by: the median
    /// of the readings within [`SPAN`] of that interval (of all readings
    /// if none is).
    pub fn around(&self, from: Instant, to: Instant) -> f64 {
        let near: Vec<f64> = self
            .0
            .iter()
            .filter(|(t, _)| *t + SPAN >= from && *t <= to + SPAN)
            .map(|r| r.1)
            .collect();
        if near.is_empty() {
            crate::stats::median(&self.0.iter().map(|r| r.1).collect::<Vec<_>>())
        } else {
            crate::stats::median(&near)
        }
    }

    /// A summary line of the readings of probe `kind`.
    pub fn line(&self, kind: Probe) -> String {
        let all: Vec<f64> = self.0.iter().map(|r| r.1).collect();
        let name = format!("host slowness, {kind:?} probe (probe s / reference s)");
        crate::stats::Summary::of(&all)
            .map_or_else(|| format!("# {name}: no probes"), |s| s.line(&name, "x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_scaled_by_the_readings_near_it() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let r = Readings(vec![
            (at(0), 1.0),
            (at(100), 2.0),
            (at(200), 3.0),
            (at(5000), 9.0),
        ]);
        // Work from 50 ms to 150 ms: the first three readings, not the last.
        assert_eq!(r.around(at(50), at(150)), 2.0);
        // Work far from every reading falls back to all of them.
        assert_eq!(r.around(at(2000), at(2100)), 2.0);
        assert_eq!(r.around(at(5100), at(5200)), 9.0);
    }

    #[test]
    fn the_probe_graph_is_the_same_in_every_run() {
        let a = Calibration::new(Probe::Walk);
        let b = Calibration::new(Probe::InterpretedWalk);
        assert_eq!((a.row.len(), a.col.len()), (NODES + 1, NODES * DEGREE));
        assert_eq!((&a.row, &a.col, &a.weight), (&b.row, &b.col, &b.weight));
        assert!(a.slowness(2) > 0.0);
        assert!(b.slowness(1) > 0.0);
    }

    #[test]
    fn interpreted_weights_match_native_ones() {
        let p = Expr::weight_program();
        let mut locals = HashMap::new();
        let w = |dst: f64, prev: f64| {
            p.eval(
                &mut locals.clone(),
                &[("w", 3.0), ("dst", dst), ("prev", prev)],
            )
        };
        assert_eq!(w(5.0, 5.0), 6.0);
        assert_eq!(w(4.0, 5.0), 3.0);
        assert_eq!(w(6.0, 5.0), 1.5);
        locals.insert("w".to_string(), 1.0);
        assert_eq!(
            p.eval(&mut locals, &[("w", 3.0), ("dst", 6.0), ("prev", 5.0)]),
            0.5
        );
    }
}
