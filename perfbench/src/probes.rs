//! Per-layer probes of a traced run: each calls one layer's public
//! functions directly, on the workload's own graph and stream, with a
//! fixed amount of work so the result is a time per call.

use crate::metrics::Metrics;
use crate::workload::{Mix, Stream, STEPS};
use crate::Outcome;
use flexiwalker::core::{CostModel, PreparedState};
use flexiwalker::gpu_sim::WarpCtx;
use flexiwalker::graph::BlockRuntime;
use flexiwalker::prelude::*;
use flexiwalker::rng::SplitMix64;
use flexiwalker::sampling::kernels::NeighborView;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Runs every probe and records its metric in `out.layers`; a probe that
/// fails is a failed check.
pub fn all(
    out: &mut Outcome,
    engine: &FlexiWalkerEngine,
    csr: &Arc<Csr>,
    stream: &Stream,
    wseed: u64,
) {
    if let Err(e) = record(&mut out.layers, engine, csr, stream, wseed) {
        out.fail(e);
    }
}

fn record(
    m: &mut Metrics,
    engine: &FlexiWalkerEngine,
    csr: &Arc<Csr>,
    stream: &Stream,
    wseed: u64,
) -> Result<(), String> {
    let probe = engine_1t(engine, csr, stream, wseed)
        .map_err(|e| format!("single-thread engine probe: {e}"))?;
    m.put("engine.steps_per_s_1t", probe.steps_per_s);
    m.put("engine.profile_ms", probe.profile_ms);
    m.put("engine.preprocess_ms", probe.preprocess_ms);
    let model = probe
        .node2vec
        .profile
        .as_ref()
        .map_or(CostModel::default_ratio(), |p| p.cost_model());
    m.put("runtime.select_ns", select_ns(engine, csr, &model, wseed));
    for (name, reg) in [
        ("walker.weight_ns.native", WalkerRegistry::builtin()),
        ("walker.weight_ns.dsl", WalkerRegistry::builtin_dsl()),
    ] {
        let cw = reg
            .resolve("node2vec")
            .map_err(|e| format!("resolve node2vec: {e}"))?;
        m.put(name, weight_ns(csr, &probe.paths, cw.walk_dyn()));
    }
    for (id, ns) in sampling_ns(engine, csr, wseed) {
        m.put(format!("sampling.{id}_ns"), ns);
    }
    m.put("walker.lower_ms", lower_ms()?);
    let (structural, weight) = apply_updates_ms(csr, wseed);
    m.put("graph.apply_updates_ms.structural", structural);
    m.put("graph.apply_updates_ms.weight", weight);
    m.put(
        "blocks.spill_s",
        spill_s(csr).map_err(|e| format!("spill probe: {e}"))?,
    );
    m.put("rng.philox_ns_per_draw", philox_ns(wseed));
    Ok(())
}

/// Minimum wall time of the single-thread engine probe.
const ENGINE_PROBE_S: f64 = 0.5;

/// What the single-thread engine probe measured.
struct EngineProbe {
    steps_per_s: f64,
    /// Host ms of `FlexiWalkerEngine::profile_for`, summed over walkers.
    profile_ms: f64,
    /// Host ms of `FlexiWalkerEngine::aggregates_for`, summed over walkers.
    preprocess_ms: f64,
    /// node2vec paths of the first pass (walk states for the weight probe).
    paths: Vec<Vec<NodeId>>,
    /// node2vec's prepared state.
    node2vec: PreparedState,
}

/// The engine's preparation (preprocess + profile) and `run_on` with
/// `host_threads(1)` over the drain stream, outside any session.
fn engine_1t(
    engine: &FlexiWalkerEngine,
    csr: &Arc<Csr>,
    stream: &Stream,
    wseed: u64,
) -> Result<EngineProbe, EngineError> {
    let handle = GraphHandle::from_arc(Arc::clone(csr));
    let snap = handle.snapshot();
    let (mut profile_ms, mut preprocess_ms) = (0.0, 0.0);
    let mut prepared = Vec::new();
    for name in crate::workload::DRAIN_WALKERS {
        let cw = Arc::new(engine.walkers().resolve(name)?);
        let t = Instant::now();
        let aggregates = Arc::new(engine.aggregates_for(csr, cw.artifacts()));
        preprocess_ms += t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let profile = engine.profile_for(csr, cw.walk_dyn(), wseed);
        profile_ms += t.elapsed().as_secs_f64() * 1e3;
        let state = PreparedState {
            artifacts: cw.artifacts().clone(),
            aggregates,
            profile,
        };
        prepared.push((name, WalkerHandle::resolved(cw), state));
    }
    let (mut steps, mut secs, mut offset) = (0u64, 0.0f64, 0u64);
    let mut paths = Vec::new();
    while secs < ENGINE_PROBE_S {
        for (name, queries) in stream {
            let (_, walker, state) = prepared
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("prepared");
            let req = WalkRequest::new(&handle, walker.clone(), Arc::clone(queries))
                .steps(STEPS)
                .seed(wseed)
                .host_threads(1)
                .query_offset(offset)
                .record_paths(paths.is_empty() && *name == "node2vec");
            offset += queries.len() as u64;
            let t = Instant::now();
            let report = engine.run_on(&snap, &req, state)?;
            secs += t.elapsed().as_secs_f64();
            steps += report.steps_taken;
            if let Some(p) = report.paths {
                paths = p;
            }
        }
    }
    Ok(EngineProbe {
        steps_per_s: steps as f64 / secs,
        profile_ms,
        preprocess_ms,
        paths,
        node2vec: prepared.swap_remove(0).2,
    })
}

/// Nodes sampled (seeded) for the selection and sampling probes.
fn sample_nodes(csr: &Csr, seed: u64, n: usize) -> Vec<NodeId> {
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    (0..n)
        .map(|_| rng.bounded(csr.num_nodes() as u64) as NodeId)
        .filter(|&v| csr.degree(v) > 0)
        .collect()
}

/// Static weight max and sum of `v`'s row.
fn row_bounds(csr: &Csr, v: NodeId) -> (f64, f64) {
    csr.edge_range(v)
        .map(|e| f64::from(csr.prop(e)))
        .fold((0.0, 0.0), |(mx, s), w| (mx.max(w), s + w))
}

/// ns per `CostModel::selection` over the registry, at the degrees (and
/// static weight max / sum) of a seeded node sample.
fn select_ns(engine: &FlexiWalkerEngine, csr: &Csr, model: &CostModel, seed: u64) -> f64 {
    const REPS: usize = 64;
    let inputs: Vec<(f64, f64, f64)> = sample_nodes(csr, seed, 4096)
        .into_iter()
        .map(|v| {
            let (mx, sum) = row_bounds(csr, v);
            (csr.degree(v) as f64, mx, sum)
        })
        .collect();
    let candidates: Vec<(&Arc<dyn Sampler>, bool)> =
        engine.registry().iter().map(|s| (s, false)).collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for &(deg, mx, sum) in &inputs {
            black_box(model.selection(candidates.iter().copied(), deg, Some(mx), Some(sum)));
        }
    }
    t.elapsed().as_secs_f64() * 1e9 / (REPS * inputs.len()) as f64
}

/// ns per kernel call of every registered sampler, on rows of the
/// workload graph: 256 sampled rows of degree <= 8 and its 16
/// highest-degree rows (static weights).
fn sampling_ns(engine: &FlexiWalkerEngine, csr: &Csr, seed: u64) -> Vec<(&'static str, f64)> {
    const REPS: usize = 16;
    let mut rows: Vec<NodeId> = sample_nodes(csr, seed, 8192)
        .into_iter()
        .filter(|&v| csr.degree(v) <= 8)
        .take(256)
        .collect();
    let mut by_degree: Vec<NodeId> = (0..csr.num_nodes() as NodeId).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(csr.degree(v)));
    rows.extend_from_slice(&by_degree[..16]);
    let mut out = Vec::new();
    for sampler in engine.registry().iter() {
        let mut ctx = WarpCtx::new(0, seed);
        let t = Instant::now();
        let mut calls = 0usize;
        for _ in 0..REPS {
            for &v in &rows {
                let base = csr.edge_range(v).start;
                let weight = |i: usize| csr.prop(base + i);
                let view = NeighborView::new(&weight, csr.degree(v), 8);
                let pick = match sampler.granularity() {
                    Granularity::Warp => sampler.sample_warp(&mut ctx, &view),
                    Granularity::Lane => {
                        let bound = row_bounds(csr, v).0 as f32;
                        sampler.sample_lane(&mut ctx, 0, &view, Some(bound))
                    }
                };
                black_box(pick);
                calls += 1;
            }
        }
        out.push((sampler.id(), t.elapsed().as_secs_f64() * 1e9 / calls as f64));
    }
    out
}

/// ns per `DynamicWalk::weight` over every out-edge at the walk states
/// the recorded paths passed through (capped at ~400k evaluations).
fn weight_ns(csr: &Csr, paths: &[Vec<NodeId>], walk: &dyn DynamicWalk) -> f64 {
    const CAP: usize = 400_000;
    let mut states = Vec::new();
    let mut edges = 0;
    'outer: for path in paths {
        for (step, pair) in path.windows(2).enumerate() {
            states.push(WalkState {
                cur: pair[1],
                prev: Some(pair[0]),
                step: step + 1,
                time: 0,
            });
            edges += csr.degree(pair[1]);
            if edges >= CAP {
                break 'outer;
            }
        }
    }
    let t = Instant::now();
    let mut acc = 0.0f32;
    for st in &states {
        for e in csr.edge_range(st.cur) {
            acc += walk.weight(csr, st, e);
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e9 / edges.max(1) as f64
}

/// Median ms to lower one DSL walker definition (node2vec and sopr).
fn lower_ms() -> Result<f64, String> {
    const REPS: usize = 20;
    let reg = WalkerRegistry::builtin_dsl();
    let mut ms = Vec::new();
    for name in crate::workload::DRAIN_WALKERS {
        let def = reg.get(name).ok_or(format!("no DSL walker {name}"))?;
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(def.lower().map_err(|e| format!("lower {name}: {e}"))?);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(crate::stats::median(&ms))
}

/// Median ms of `GraphHandle::apply_updates` on a private copy of the
/// graph: (structural batches, weight-only batches).
fn apply_updates_ms(csr: &Csr, seed: u64) -> (f64, f64) {
    const BATCHES: usize = 8;
    let handle = GraphHandle::new(csr.clone());
    let mut mix = Mix::new(seed, 99, csr.num_nodes(), csr.num_edges());
    let (mut structural, mut weight) = (Vec::new(), Vec::new());
    for i in 0..2 * BATCHES {
        let batch = mix.batch(i % 2 == 0);
        let t = Instant::now();
        handle
            .apply_updates(&batch)
            .expect("generated updates apply");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if i % 2 == 0 {
            structural.push(ms)
        } else {
            weight.push(ms)
        }
    }
    (
        crate::stats::median(&structural),
        crate::stats::median(&weight),
    )
}

/// Median seconds to plan and spill the graph at the out-of-core geometry.
fn spill_s(csr: &Csr) -> Result<f64, GraphError> {
    let (budget, block) = crate::drain::ooc_geometry(csr);
    let mut secs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        black_box(BlockRuntime::build(csr, block, budget)?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(crate::stats::median(&secs))
}

/// ns per Philox4x32 draw over a fixed loop: a host-speed calibration.
fn philox_ns(seed: u64) -> f64 {
    const DRAWS: usize = 16 << 20;
    let mut rng = Philox4x32::new(seed, 0);
    let t = Instant::now();
    let mut acc = 0u32;
    for _ in 0..DRAWS {
        acc ^= rng.next_u32();
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e9 / DRAWS as f64
}

/// Seconds `Session::load_graph` takes on a fresh session (the content
/// digest), for workloads whose set-up loads the graph inside a server.
pub fn load_s(csr: &Arc<Csr>) -> f64 {
    let mut session = FlexiWalker::builder().build();
    let t = Instant::now();
    black_box(session.load_graph(GraphHandle::from_arc(Arc::clone(csr))));
    t.elapsed().as_secs_f64()
}
