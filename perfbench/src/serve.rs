//! The `serve-churn` workload: a `WalkServer` under an open loop of walk
//! requests (node2vec / sopr / uniform, incremental sampler state on)
//! interleaved with structural and weight-only update batches.
//!
//! Threads: the generator (this thread) sends, and probes the host's
//! speed in the idle time before a send; one collector thread blocks on
//! the tickets in send order and timestamps each completion; the server
//! runs its serving loop with one drain worker (inline). The two busy
//! threads (generator, serving loop) fit a 2-core host; the collector
//! sleeps on a condition variable between completions.

use crate::calib::{Calibration, Probe, Readings};
use crate::drain::{engine_counts, imbalance, session_counters, stage_delta, stage_layers};
use crate::metrics::{Metrics, Samples};
use crate::openloop::{self, Schedule};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::workload::{self, Mix, STEPS, WARM_QUERIES};
use crate::{probes, Outcome, Run};
use flexiwalker::gpu_sim::CostStats;
use flexiwalker::prelude::*;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operations (requests + update batches) offered per second. Held
/// without a growing backlog on a 2-core host.
pub const RATE: f64 = 40.0;
/// Every this-many-th operation is an update batch: two structural
/// batches, then one weight-only, repeating (so the median update is a
/// structural one, not a draw between two modes).
pub const UPDATE_EVERY: usize = 5;
/// Operations sent even past `--seconds` (per half of a traced run), so
/// the p90 of walk latency has at least ten samples beyond it.
const MIN_OPS: usize = 140;
/// Windows of the open loop; a traced run traces every other one, and
/// each window's timings are scaled by the host slowness read around it.
const WINDOW_S: f64 = 0.5;
/// The generator probes the host's speed before every this-many-th
/// operation, in the idle time before its due time ...
const PROBE_EVERY: usize = 2;
/// ... starting this long before it (a probe takes under 2 ms) ...
const PROBE_LEAD: Duration = Duration::from_millis(6);
/// ... on this many threads at once, one per busy thread of the run (the
/// serving loop and the generator), so it samples the cores they use.
const PROBE_THREADS: usize = 2;

enum Op {
    Walk(&'static str, Arc<[NodeId]>),
    Update(Vec<GraphUpdate>),
}

enum Pending {
    Walk(WalkTicket),
    Update(UpdateTicket),
}

/// One completed operation, timed from its due time.
struct Done {
    walk: bool,
    window: usize,
    latency_ms: f64,
    report: Option<RunReport>,
    error: Option<String>,
}

fn server() -> WalkServer {
    WalkServer::builder()
        .session(
            FlexiWalker::builder()
                .register_sampler(Arc::new(AliasSampler))
                .register_sampler(Arc::new(ItsSampler))
                .incremental_state(true),
        )
        .device(DeviceSpec::a6000())
        .workers(1)
        .serve()
}

/// Generates the graph, starts a server and serves one warm request per
/// walker through it.
fn setup(
    run: &Run,
    tracer: &mut Tracer,
) -> Result<(WalkServer, GraphHandle, Arc<Csr>, f64), String> {
    let t = Instant::now();
    let csr = tracer.span("graph.generate", 0, || {
        Arc::new(workload::graph(run.seed, workload::SERVE_SCALE))
    });
    let graph = GraphHandle::from_arc(Arc::clone(&csr));
    let server = tracer.span("server.serve", 0, server);
    let warm: Arc<[NodeId]> = (0..WARM_QUERIES as NodeId).collect();
    for name in workload::SERVE_WALKERS {
        let req = WalkRequest::new(&graph, name, Arc::clone(&warm))
            .steps(STEPS)
            .seed(workload::walk_seed(run.seed));
        tracer
            .span("server.submit", 0, || server.submit(req))
            .map_err(|e| format!("warm {name}: {e}"))?
            .wait()
            .map_err(|e| format!("warm {name}: {e}"))?;
    }
    Ok((server, graph, csr, t.elapsed().as_secs_f64()))
}

/// The operations of one run, generated before its clock starts.
fn schedule_ops(seed: u64, csr: &Csr, count: usize) -> (Vec<Op>, usize, usize) {
    let mut mix = Mix::new(seed, 1, csr.num_nodes(), csr.num_edges());
    let (mut walks, mut batches) = (0usize, 0usize);
    let ops = (0..count)
        .map(|i| {
            if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                batches += 1;
                Op::Update(mix.batch(batches % 3 != 0))
            } else {
                walks += 1;
                Op::Walk(workload::SERVE_WALKERS[walks % 3], mix.serve_queries())
            }
        })
        .collect();
    (ops, walks, batches)
}

/// What one run of the open loop produced.
struct LoopResult {
    done: Vec<Done>,
    /// Generator lateness per operation, ms.
    late_ms: Vec<f64>,
    /// Serving-loop drain seconds (prepare + execute) per window.
    busy_s: Vec<f64>,
    /// Host slowness per window.
    slow: Vec<f64>,
    readings: Readings,
    admit_errors: Vec<String>,
}

/// Drives one server with the open loop for `schedule`.
#[allow(clippy::too_many_arguments)]
fn drive(
    server: &WalkServer,
    graph: &GraphHandle,
    ops: &[Op],
    schedule: &Schedule,
    wseed: u64,
    trace: bool,
    tracer: &mut Tracer,
    cal: &Calibration,
) -> LoopResult {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Pending)>();
    let collector = std::thread::spawn(move || {
        rx.into_iter()
            .map(|(window, due, pending)| {
                let (walk, outcome) = match pending {
                    Pending::Walk(t) => (true, t.wait().map(Some)),
                    Pending::Update(t) => (false, t.wait().map(|_| None)),
                };
                let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                let (report, error) = match outcome {
                    Ok(r) => (r, None),
                    Err(e) => (None, Some(e.to_string())),
                };
                Done {
                    walk,
                    window,
                    latency_ms,
                    report,
                    error,
                }
            })
            .collect::<Vec<Done>>()
    });

    let busy = |s: &ServerStats| s.session.stages.prepare_seconds + s.session.stages.wall_seconds;
    let mut marks = vec![busy(&server.stats())];
    let mut admit_errors = Vec::new();
    let window_of = |i: usize| (schedule.offset(i).as_secs_f64() / WINDOW_S) as usize;
    let mut readings = Readings::default();
    let probe = |i: usize| {
        if i % PROBE_EVERY == 0 {
            readings.take(cal, PROBE_THREADS);
        }
    };
    let start = Instant::now();
    let late = openloop::drive(schedule, start, PROBE_LEAD, probe, |i, due| {
        let window = window_of(i);
        if window >= marks.len() {
            marks.push(busy(&server.stats()));
        }
        tracer.set(traced_window(trace, window));
        let pending = match &ops[i] {
            Op::Walk(name, queries) => {
                let req = WalkRequest::new(graph, *name, Arc::clone(queries))
                    .steps(STEPS)
                    .seed(wseed);
                tracer
                    .span("server.submit", i as u64, || server.submit(req))
                    .map(Pending::Walk)
            }
            Op::Update(batch) => tracer
                .span("server.apply_updates", i as u64, || {
                    server.apply_updates(graph, batch.clone())
                })
                .map(Pending::Update),
        };
        match pending {
            Ok(p) => tx.send((window, due, p)).expect("collector alive"),
            Err(e) => admit_errors.push(format!("op {i}: {e}")),
        }
    });
    tracer.set(false);
    drop(tx);
    let done = collector.join().expect("collector thread");
    marks.push(busy(&server.stats()));
    let at = |w: usize| start + Duration::from_secs_f64(w as f64 * WINDOW_S);
    let slow = (0..marks.len())
        .map(|w| readings.around(at(w), at(w + 1)))
        .collect();
    LoopResult {
        done,
        late_ms: late.iter().map(|l| l * 1e3).collect(),
        busy_s: marks.windows(2).map(|w| w[1] - w[0]).collect(),
        slow,
        readings,
        admit_errors,
    }
}

/// Runs `serve-churn`.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::new(run.origin);
    let trace = run.trace;
    let wseed = workload::walk_seed(run.seed);

    // Set-up (see `crate::setups` for a traced run's order); the run
    // keeps the last server. Each set-up sits between two probes and is
    // scaled by the slowness read around it.
    let cal = Calibration::new(Probe::Walk);
    let mut readings = Readings::default();
    let mut setups: Vec<(bool, f64)> = Vec::new();
    let mut kept = None;
    for &traced in crate::setups(trace) {
        // One server at a time: the previous one is shut down before the
        // next starts, so the peak RSS is that of one.
        drop(kept.take());
        out.tracer.set(traced);
        readings.take(&cal, PROBE_THREADS);
        let from = Instant::now();
        match setup(run, &mut out.tracer) {
            Ok((server, graph, csr, setup_s)) => {
                out.tracer.set(false);
                let to = Instant::now();
                readings.take(&cal, PROBE_THREADS);
                let slow = readings.around(from, to);
                out.attempted += workload::SERVE_WALKERS.len() as u64;
                setups.push((traced, setup_s / slow));
                kept = Some((server, graph, csr));
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    out.tracer.set(false);
    let (server, graph, csr) = kept.expect("at least one set-up");

    let schedule = Schedule {
        rate: RATE,
        count: ((RATE * run.seconds).round() as usize).max(MIN_OPS * (1 + usize::from(trace))),
    };
    let (ops, walks, batches) = schedule_ops(run.seed, &csr, schedule.count);
    let base = server.stats();
    let looped = drive(
        &server,
        &graph,
        &ops,
        &schedule,
        wseed,
        trace,
        &mut out.tracer,
        &cal,
    );
    let stats = server.shutdown();

    // Output checks.
    out.attempted += schedule.count as u64;
    let errors: Vec<String> = looped.done.iter().filter_map(|d| d.error.clone()).collect();
    out.failed += (looped.admit_errors.len() + errors.len()) as u64;
    out.problems.extend(looped.admit_errors.iter().cloned());
    out.problems.extend(errors);
    let offered = (walks + workload::SERVE_WALKERS.len()) as u64;
    if stats.served != offered {
        out.fail(format!(
            "served {} of {offered} walk requests",
            stats.served
        ));
    }
    let refused = stats.admission.rejected + stats.admission.shed;
    if refused != 0 {
        out.failed += refused;
        out.fail(format!(
            "{} rejected, {} shed under the Block policy",
            stats.admission.rejected, stats.admission.shed
        ));
    }
    if graph.epoch() != batches as u64 || stats.updates_applied != batches as u64 {
        out.fail(format!(
            "final epoch {} / {} updates applied, expected {batches}",
            graph.epoch(),
            stats.updates_applied
        ));
    }

    // End-to-end metrics, from the untraced (and, traced, the traced) half.
    let done = &looped.done;
    let e2e = |m: &mut Metrics, traced: bool| -> (Vec<String>, Samples) {
        let half = || {
            done.iter()
                .filter(|d| traced_window(trace, d.window) == traced)
        };
        let at_ref = |d: &Done| d.latency_ms / looped.slow[d.window];
        let setup: Vec<f64> = setups
            .iter()
            .filter(|(t, _)| *t == traced)
            .map(|(_, s)| *s)
            .collect();
        // Walk steps per second the serving loop spent draining, per window.
        let rate = looped
            .busy_s
            .iter()
            .enumerate()
            .filter(|&(w, &busy)| traced_window(trace, w) == traced && busy > 0.0)
            .map(|(w, busy)| {
                let steps: u64 = done
                    .iter()
                    .filter(|d| d.window == w)
                    .filter_map(|d| d.report.as_ref())
                    .map(|r| r.steps_taken)
                    .sum();
                steps as f64 / busy * looped.slow[w]
            })
            .collect();
        let samples = Samples {
            setup_s: setup,
            latency_ms: half().filter(|d| d.walk).map(at_ref).collect(),
            update_ms: half().filter(|d| !d.walk).map(at_ref).collect(),
            rate,
        };
        samples.metrics(m);
        let lines = [
            Summary::of(&samples.latency_ms)
                .map(|s| s.line("request latency (from due time)", "ms")),
            Summary::of(&samples.update_ms).map(|s| s.line("update latency (from due time)", "ms")),
        ]
        .into_iter()
        .flatten()
        .collect();
        (lines, samples)
    };
    let (lines, samples) = e2e(&mut out.e2e, false);
    out.lines.extend(lines);
    out.samples = samples;
    let reports = || done.iter().filter_map(|d| d.report.as_ref());
    out.e2e.put("sim_s", reports().map(|r| r.sim_seconds).sum());
    let lateness = Summary::of(&looped.late_ms).expect("at least one operation");
    out.lines.push(lateness.line("generator lateness", "ms"));
    out.lines.push(looped.readings.line(Probe::Walk));

    if trace {
        let mut traced = Metrics::default();
        let (lines, _) = e2e(&mut traced, true);
        out.lines
            .extend(lines.into_iter().map(|l| l.replace("# ", "# traced ")));
        out.overhead(&traced);

        let m = &mut out.layers;
        m.put(
            "server.submit_us",
            median(&out.tracer.durations("server.submit")) * 1e6,
        );
        m.put("server.peak_depth", stats.admission.peak_depth as f64);
        let served = (stats.served - base.served) as f64;
        m.put(
            "server.batch_size",
            served / (stats.serve_cycles - base.serve_cycles).max(1) as f64,
        );
        let lat: Vec<f64> = done
            .iter()
            .filter(|d| d.walk)
            .map(|d| d.latency_ms / looped.slow[d.window])
            .collect();
        let s = Summary::of(&lat).expect("walks served");
        m.put(
            "server.serve_p99_ms",
            s.at(0.99).or(s.tail.map(|t| t.1)).unwrap_or(s.p50),
        );
        m.put(
            "server.gen_late_ms",
            lateness.tail.map_or(lateness.p50, |t| t.1),
        );

        stage_layers(
            m,
            &stage_delta(&base.session.stages, &stats.session.stages),
            served,
        );
        m.put(
            "executor.worker_imbalance",
            imbalance(&stats.session.worker_requests),
        );
        session_counters(m, &stats.session);
        let mut cost = CostStats::default();
        let mut tally = SamplerTally::new();
        let mut steps = 0;
        for r in reports() {
            cost.add(&r.stats);
            tally.merge(&r.sampler_steps);
            steps += r.steps_taken;
        }
        let tally: Vec<(String, u64)> = tally.iter().map(|(id, n)| (id.to_string(), n)).collect();
        engine_counts(m, steps, &tally, &cost, &DeviceSpec::a6000());
        for name in ["blocks.hit_rate", "blocks.loads", "blocks.evictions"] {
            m.put(name, 0.0);
        }
        m.put("graph.load_s", probes::load_s(&csr));
        let stream = workload::drain_stream(run.seed, 0, csr.num_nodes());
        let engine = FlexiWalkerEngine::new(DeviceSpec::a6000());
        probes::all(&mut out, &engine, &csr, &stream, wseed);
    }
    out
}

/// Whether window `w` of the open loop is traced.
fn traced_window(trace: bool, w: usize) -> bool {
    trace && w % 2 == 1
}
