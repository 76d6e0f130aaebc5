//! The offline drain workloads: `drain-native`, `drain-dsl`, `drain-ooc`.
//!
//! Each timed pass submits one pass of the drain stream to one `Session`
//! and drains it. Passes draw fresh start nodes and the session's query
//! cursor advances, so every pass walks different (equally sized) walk
//! sets; the first passes are the same in every run of a seed, which
//! makes their digest, simulated time and counters exactly repeatable.

use crate::calib::{Calibration, Probe, Readings};
use crate::metrics::{Metrics, Samples};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workload::{self, Digest, Mix, Stream, STEPS, WARM_QUERIES};
use crate::{probes, Outcome, Run};
use flexiwalker::gpu_sim::CostStats;
use flexiwalker::graph::BlockIndex;
use flexiwalker::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Which drain workload.
#[derive(Clone, Copy, Debug)]
pub enum Drain {
    /// Built-in native walkers, `Topology::Single`.
    Native,
    /// Walkers from `WalkerRegistry::builtin_dsl()` (interpreted DSL).
    Dsl,
    /// Native walkers under `Topology::OutOfCore`.
    Ooc,
}

/// Timed passes made even past `--seconds` (per half of a traced run):
/// 7 x 16 requests put 11 per-request latencies beyond the p90.
const MIN_PASSES: usize = 7;
/// Weight-only update batches applied after the timed passes. (Structural
/// batches are timed by `serve-churn` and the `graph` probe: at this
/// graph size their copy-on-write cost swings with the host's page
/// allocation from one run to the next.) Out of core, each batch re-spills
/// about half the blocks, and more batches per run spread wider: the
/// writes start to wait for the disk.
const UPDATES: usize = 48;
/// A probe is taken before every this-many-th update. Native updates take
/// a fraction of a millisecond, and a probe evicts what the next one works
/// on: one update in this many starts cold, and the trimmed mean of
/// `update_mean_ms` drops it.
const UPDATES_PER_PROBE: usize = 16;
/// The out-of-core graph is this many times the resident budget ...
const OVERSIZE: usize = 4;
/// ... and the budget holds this many blocks of the target size.
const BLOCKS_RESIDENT: usize = 4;

/// `(resident_budget, block_bytes)` of the out-of-core topology. The block
/// target is the graph's block payload ÷ (`OVERSIZE` × `BLOCKS_RESIDENT`),
/// rounded up, so the planner's first block count has blocks of exactly
/// the target's mean size: the busiest is always over it, and the planner
/// always doubles the count once. (Rounded down, the first count came out
/// one higher, its busiest block sat within 1 % of the target, and the
/// plan flipped between 17 and 34 blocks with the seed.)
pub fn ooc_geometry(csr: &Csr) -> (usize, usize) {
    let payload = BlockIndex::plan(csr, usize::MAX).total_payload_bytes();
    let block = payload.div_ceil(OVERSIZE * BLOCKS_RESIDENT);
    (block * BLOCKS_RESIDENT, block)
}

fn builder(kind: Drain, workers: usize, csr: &Csr) -> SessionBuilder {
    let b = FlexiWalker::builder()
        .device(DeviceSpec::a6000())
        .workers(workers);
    match kind {
        Drain::Native => b,
        Drain::Dsl => b.walker_registry(WalkerRegistry::builtin_dsl()),
        Drain::Ooc => {
            let (budget, block) = ooc_geometry(csr);
            b.topology(Topology::out_of_core(budget, block))
        }
    }
}

/// A session loaded with the workload graph and warmed on every walker.
struct Ready {
    session: Session,
    graph: GraphHandle,
    walkers: Vec<(&'static str, WalkerHandle)>,
    /// Requests issued in set-up.
    requests: u64,
}

/// What one set-up cost.
#[derive(Default)]
struct SetupCost {
    /// Seconds at the reference host speed (see `crate::calib`).
    total_s: f64,
    load_s: f64,
}

/// Loads `csr` into a `kind` session and runs one warm request per
/// walker (lowering, preprocessing, profiling and, out of core, the
/// spill all happen here).
fn warm(
    kind: Drain,
    workers: usize,
    csr: &Arc<Csr>,
    stream: &Stream,
    wseed: u64,
    tracer: &mut Tracer,
    cost: &mut SetupCost,
) -> Result<Ready, String> {
    let mut session = builder(kind, workers, csr).build();
    let t = Instant::now();
    let graph = tracer.span("session.load_graph", 0, || {
        session.load_graph(GraphHandle::from_arc(Arc::clone(csr)))
    });
    cost.load_s = t.elapsed().as_secs_f64();
    let mut walkers = Vec::new();
    for name in workload::DRAIN_WALKERS {
        let handle = tracer
            .span("session.load_walker", 0, || session.load_walker(name))
            .map_err(|e| format!("load_walker({name}): {e}"))?;
        walkers.push((name, handle));
    }
    for (name, handle) in &walkers {
        let req = WalkRequest::new(&graph, handle.clone(), &stream[0].1[..WARM_QUERIES])
            .steps(STEPS)
            .seed(wseed)
            .record_paths(true);
        tracer
            .span("session.run", 0, || session.run(req))
            .map_err(|e| format!("warm {name}: {e}"))?;
    }
    Ok(Ready {
        session,
        graph,
        walkers,
        requests: workload::DRAIN_WALKERS.len() as u64,
    })
}

/// Totals of one pass.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    /// `wall_s` at the reference host speed (see `crate::calib`).
    ref_s: f64,
    steps: u64,
    sim_s: f64,
    digest: Digest,
    cost: CostStats,
    tally: Vec<(String, u64)>,
    errors: Vec<String>,
}

/// Submits the whole stream and drains it.
fn pass(ready: &mut Ready, stream: &Stream, wseed: u64, tracer: &mut Tracer, id: u64) -> Pass {
    let t = Instant::now();
    for (name, queries) in stream {
        let handle = &ready
            .walkers
            .iter()
            .find(|(n, _)| n == name)
            .expect("walker loaded")
            .1;
        let req = WalkRequest::new(&ready.graph, handle.clone(), Arc::clone(queries))
            .steps(STEPS)
            .seed(wseed)
            .record_paths(true);
        tracer.span("session.submit", id, || ready.session.submit(req));
    }
    let results = tracer.span("session.drain", id, || ready.session.drain());
    let mut out = Pass {
        wall_s: t.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    let mut tally = SamplerTally::new();
    for (ticket, result) in &results {
        match result {
            Ok(r) => {
                out.steps += r.steps_taken;
                out.sim_s += r.sim_seconds;
                out.cost.add(&r.stats);
                out.digest.report(r);
                tally.merge(&r.sampler_steps);
            }
            Err(e) => out.errors.push(format!("request {}: {e}", ticket.id())),
        }
    }
    out.tally = tally.iter().map(|(id, n)| (id.to_string(), n)).collect();
    out
}

/// Pass-0 digest of a reference configuration replaying the same set-up
/// and stream.
fn reference(
    kind: Drain,
    workers: usize,
    csr: &Arc<Csr>,
    stream: &Stream,
    wseed: u64,
) -> Result<Digest, String> {
    let mut off = Tracer::new(false, Instant::now());
    let mut ready = warm(
        kind,
        workers,
        csr,
        stream,
        wseed,
        &mut off,
        &mut SetupCost::default(),
    )?;
    let p = pass(&mut ready, stream, wseed, &mut off, 0);
    match p.errors.first() {
        Some(e) => Err(e.clone()),
        None => Ok(p.digest),
    }
}

/// Subtracts stage timings (`after - before`).
pub fn stage_delta(before: &StageTiming, after: &StageTiming) -> StageTiming {
    StageTiming {
        prepare_seconds: after.prepare_seconds - before.prepare_seconds,
        launch_seconds: after.launch_seconds - before.launch_seconds,
        merge_seconds: after.merge_seconds - before.merge_seconds,
        replay_seconds: after.replay_seconds - before.replay_seconds,
        merge_tail_seconds: after.merge_tail_seconds - before.merge_tail_seconds,
        wall_seconds: after.wall_seconds - before.wall_seconds,
    }
}

/// Runs one drain workload.
pub fn run(kind: Drain, run: &Run) -> Outcome {
    let workers = flexiwalker::core::WorkerPool::available();
    let mut out = Outcome::new(run.origin);
    // Every timed unit sits between two probes at the drain's thread
    // count and is scaled by the slowness read around it. Passes are read
    // with a probe that walks as the workload's walkers do; set-up and
    // updates (graph work) with the native walk probe.
    let graph_cal = Calibration::new(Probe::Walk);
    let dsl_cal = matches!(kind, Drain::Dsl).then(|| Calibration::new(Probe::InterpretedWalk));
    let walk_cal = dsl_cal.as_ref().unwrap_or(&graph_cal);
    let (mut graph_readings, mut walk_readings) = (Readings::default(), Readings::default());
    let wseed = workload::walk_seed(run.seed);
    let trace = run.trace;

    // Set-up (see `crate::setups` for a traced run's order); the run
    // keeps the last.
    let mut setups: Vec<(bool, SetupCost)> = Vec::new();
    let mut kept = None;
    for &traced in crate::setups(trace) {
        // One set-up at a time: the previous one is gone before the next
        // starts, so the peak RSS is that of one.
        drop(kept.take());
        out.tracer.set(traced);
        let mut cost = SetupCost::default();
        graph_readings.take(&graph_cal, workers);
        let t = Instant::now();
        let csr = out.tracer.span("graph.generate", 0, || {
            Arc::new(workload::graph(run.seed, workload::DRAIN_SCALE))
        });
        let stream = workload::drain_stream(run.seed, 0, csr.num_nodes());
        match warm(
            kind,
            workers,
            &csr,
            &stream,
            wseed,
            &mut out.tracer,
            &mut cost,
        ) {
            Ok(ready) => {
                cost.total_s = t.elapsed().as_secs_f64();
                let end = Instant::now();
                graph_readings.take(&graph_cal, workers);
                cost.total_s /= graph_readings.around(t, end);
                out.attempted += ready.requests;
                setups.push((traced, cost));
                kept = Some((ready, csr, stream));
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    out.tracer.set(false);
    let (mut ready, csr, stream) = kept.expect("at least one set-up");

    // Timed passes; a traced run alternates untraced / traced passes.
    let before = ready.session.stats();
    let mut first_blocks = None;
    let mut passes: Vec<(bool, Pass)> = Vec::new();
    let min_passes = MIN_PASSES * (1 + usize::from(trace));
    let start = Instant::now();
    let mut spans = Vec::new();
    walk_readings.take(walk_cal, workers);
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < run.seconds {
        let k = passes.len() as u64;
        let this = workload::drain_stream(run.seed, k, csr.num_nodes());
        let traced = trace && k % 2 == 1;
        out.tracer.set(traced);
        let from = Instant::now();
        let p = pass(&mut ready, &this, wseed, &mut out.tracer, k);
        spans.push((from, Instant::now()));
        out.tracer.set(false);
        walk_readings.take(walk_cal, workers);
        out.attempted += stream.len() as u64;
        out.failed += p.errors.len() as u64;
        out.problems.extend(p.errors.iter().cloned());
        first_blocks.get_or_insert_with(|| ready.session.stats());
        passes.push((traced, p));
    }
    out.tracer.set(false);
    for ((_, p), &(from, to)) in passes.iter_mut().zip(&spans) {
        p.ref_s = p.wall_s / walk_readings.around(from, to);
    }
    let stages = stage_delta(&before.stages, &ready.session.stats().stages);
    let first_blocks = first_blocks.expect("at least one pass");
    let first = &passes[0].1;

    // Output check: the first pass against a reference configuration.
    let (ref_kind, ref_workers) = match kind {
        Drain::Native => (Drain::Native, 1),
        Drain::Dsl | Drain::Ooc => (Drain::Native, workers),
    };
    match reference(ref_kind, ref_workers, &csr, &stream, wseed) {
        Ok(d) if d == first.digest => {}
        Ok(_) => out.fail(format!(
            "first-pass walks differ from the {ref_kind:?} Single reference at {ref_workers} worker(s)"
        )),
        Err(e) => out.fail(format!("reference drain failed: {e}")),
    }
    if first.steps == 0 {
        out.fail("the first pass took no steps".to_string());
    }

    // Live updates after the timed passes; each must advance the epoch.
    let mut mix = Mix::new(run.seed, 0, csr.num_nodes(), csr.num_edges());
    let mut timed: Vec<(bool, f64, Instant)> = Vec::new();
    for i in 0..UPDATES {
        if i % UPDATES_PER_PROBE == 0 {
            graph_readings.take(&graph_cal, workers);
        }
        let batch = mix.batch(false);
        let traced = trace && i % 2 == 1;
        out.tracer.set(traced);
        let t = Instant::now();
        let outcome = out.tracer.span("session.apply_updates", i as u64, || {
            ready.session.apply_updates(&ready.graph, &batch)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        match outcome {
            Ok(o) if o.version.epoch == i as u64 + 1 => timed.push((traced, ms, t)),
            Ok(o) => out.fail(format!("update {i} left epoch {}", o.version.epoch)),
            Err(e) => {
                out.failed += 1;
                out.fail(format!("update {i}: {e}"));
            }
        }
    }
    out.tracer.set(false);
    graph_readings.take(&graph_cal, workers);
    let updates: Vec<(bool, f64)> = timed
        .into_iter()
        .map(|(traced, ms, t)| (traced, ms / graph_readings.around(t, t)))
        .collect();

    // End-to-end metrics, from the untraced (and, traced, the traced) half.
    let e2e = |m: &mut Metrics, traced: bool| -> (Vec<String>, Samples) {
        let ps: Vec<&Pass> = passes
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, p)| p)
            .collect();
        let setup: Vec<f64> = setups
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, c)| c.total_s)
            .collect();
        let samples = Samples {
            setup_s: setup,
            rate: ps.iter().map(|p| p.steps as f64 / p.ref_s).collect(),
            // Every request of a pass gets its report when the drain returns.
            latency_ms: ps
                .iter()
                .flat_map(|p| std::iter::repeat_n(p.ref_s * 1e3, stream.len()))
                .collect(),
            update_ms: updates
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, ms)| *ms)
                .collect(),
        };
        samples.metrics(m);
        (lat_lines(&samples.latency_ms, &samples.update_ms), samples)
    };
    let (lines, samples) = e2e(&mut out.e2e, false);
    out.lines.extend(lines);
    out.samples = samples;
    out.lines.push(walk_readings.line(walk_cal.kind()));
    out.lines.push(graph_readings.line(Probe::Walk));
    // Mean simulated seconds of the first MIN_PASSES passes, which every
    // run makes: deterministic for a seed.
    let sim: f64 = passes[..MIN_PASSES].iter().map(|(_, p)| p.sim_s).sum();
    out.e2e.put("sim_s", sim / MIN_PASSES as f64);

    if trace {
        let mut traced = Metrics::default();
        out.lines.extend(
            e2e(&mut traced, true)
                .0
                .into_iter()
                .map(|l| l.replace("# ", "# traced ")),
        );
        out.overhead(&traced);
        let requests = (passes.len() * stream.len()) as f64;
        let m = &mut out.layers;
        stage_layers(m, &stages, requests);
        let end = ready.session.stats();
        m.put("executor.worker_imbalance", imbalance(&end.worker_requests));
        session_counters(m, &end);
        engine_counts(
            m,
            first.steps,
            &first.tally,
            &first.cost,
            ready.session.engine().spec(),
        );
        let loads = (first_blocks.block_loads - before.block_loads) as f64;
        let hits = (first_blocks.block_hits - before.block_hits) as f64;
        m.put("blocks.loads", loads);
        m.put(
            "blocks.evictions",
            (first_blocks.block_evictions - before.block_evictions) as f64,
        );
        m.put(
            "blocks.hit_rate",
            if hits + loads > 0.0 {
                hits / (hits + loads)
            } else {
                0.0
            },
        );
        m.put("graph.load_s", setups[0].1.load_s);
        for name in [
            "server.submit_us",
            "server.peak_depth",
            "server.batch_size",
            "server.serve_p99_ms",
            "server.gen_late_ms",
        ] {
            m.put(name, 0.0);
        }
        let engine = ready.session.engine().clone();
        probes::all(&mut out, &engine, &csr, &stream, wseed);
    }
    out
}

fn lat_lines(latency: &[f64], updates: &[f64]) -> Vec<String> {
    let mut lines = Vec::new();
    if let Some(s) = Summary::of(latency) {
        lines.push(s.line("request latency", "ms"));
    }
    if let Some(s) = Summary::of(updates) {
        lines.push(s.line("update latency", "ms"));
    }
    lines
}

/// Executor and session stage seconds per drained request.
pub fn stage_layers(m: &mut Metrics, s: &StageTiming, requests: f64) {
    m.put("session.prepare_s", s.prepare_seconds / requests);
    m.put("executor.launch_s", s.launch_seconds / requests);
    m.put("executor.merge_s", s.merge_seconds / requests);
    m.put("executor.merge_tail_s", s.merge_tail_seconds / requests);
    m.put("executor.replay_s", s.replay_seconds / requests);
}

/// Max ÷ mean of per-worker request counts (1 = perfectly even).
pub fn imbalance(per_worker: &[u64]) -> f64 {
    let total: u64 = per_worker.iter().sum();
    let max = per_worker.iter().copied().max().unwrap_or(0);
    if total == 0 {
        1.0
    } else {
        max as f64 * per_worker.len() as f64 / total as f64
    }
}

/// The session's cache-migration counters.
pub fn session_counters(m: &mut Metrics, s: &SessionStats) {
    m.put(
        "session.aggregates_refreshed",
        s.aggregates_refreshed as f64,
    );
    m.put("session.profiles_carried", s.profiles_carried as f64);
    m.put(
        "session.sampler_state_patches",
        s.sampler_state_patches as f64,
    );
    m.put(
        "session.sampler_state_builds",
        s.sampler_state_builds as f64,
    );
}

/// Exact engine and simulator counts of one deterministic unit of work.
pub fn engine_counts(
    m: &mut Metrics,
    steps: u64,
    tally: &[(String, u64)],
    cost: &CostStats,
    spec: &DeviceSpec,
) {
    let per = |n: u64| n as f64 / steps.max(1) as f64;
    m.put("engine.steps", steps as f64);
    for id in crate::metrics::SAMPLERS {
        let n = tally.iter().find(|(t, _)| t == id).map_or(0, |(_, n)| *n);
        m.put(format!("engine.sampler_share.{id}"), per(n));
    }
    m.put("sim.rng_draws_per_step", per(cost.rng_draws));
    m.put("sim.random_tx_per_step", per(cost.random_transactions));
    m.put(
        "sim.coalesced_tx_per_step",
        per(cost.coalesced_transactions),
    );
    m.put("sim.alu_ops_per_step", per(cost.alu_ops));
    m.put(
        "sim.bytes_per_step",
        per(cost.total_transactions()) * spec.transaction_bytes as f64,
    );
}
