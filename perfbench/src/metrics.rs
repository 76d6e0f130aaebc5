//! The metric catalogue (names and units, mirrored by `BENCHMARK.json`)
//! and the result line.

use crate::stats::{self, Summary};
use std::collections::BTreeMap;

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("sim_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("update_mean_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics whose tracing overhead a traced run reports
/// (`trace.overhead.<name>`, traced ÷ untraced). `sim_s` is host
/// independent and `peak_rss_mb` is one value per process, so neither
/// can be split between the traced and untraced halves of one run.
pub const OVERHEAD: [&str; 5] = [
    "setup_s",
    "steps_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "update_mean_ms",
];

/// Sampler ids whose share of engine steps is reported.
pub const SAMPLERS: [&str; 4] = ["ervs", "erjs", "its", "als"];

/// Per-layer metrics: printed by every traced run, on every workload. A
/// layer a workload does not exercise reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("server.submit_us", "us"),
        ("server.peak_depth", "count"),
        ("server.batch_size", "req/cycle"),
        ("server.serve_p99_ms", "ms"),
        ("server.gen_late_ms", "ms"),
        ("session.prepare_s", "s/req"),
        ("session.aggregates_refreshed", "count"),
        ("session.profiles_carried", "count"),
        ("session.sampler_state_patches", "count"),
        ("session.sampler_state_builds", "count"),
        ("executor.launch_s", "s/req"),
        ("executor.merge_s", "s/req"),
        ("executor.merge_tail_s", "s/req"),
        ("executor.replay_s", "s/req"),
        ("executor.worker_imbalance", "ratio"),
        ("engine.steps_per_s_1t", "1/s"),
        ("engine.steps", "count"),
        ("engine.profile_ms", "ms"),
        ("engine.preprocess_ms", "ms"),
        ("runtime.select_ns", "ns"),
        ("sim.rng_draws_per_step", "count/step"),
        ("sim.random_tx_per_step", "count/step"),
        ("sim.coalesced_tx_per_step", "count/step"),
        ("sim.alu_ops_per_step", "count/step"),
        ("sim.bytes_per_step", "computed-B/step"),
        ("walker.weight_ns.native", "ns"),
        ("walker.weight_ns.dsl", "ns"),
        ("walker.lower_ms", "ms"),
        ("graph.load_s", "s"),
        ("graph.apply_updates_ms.structural", "ms"),
        ("graph.apply_updates_ms.weight", "ms"),
        ("blocks.hit_rate", "ratio"),
        ("blocks.loads", "count"),
        ("blocks.evictions", "count"),
        ("blocks.spill_s", "s"),
        ("rng.philox_ns_per_draw", "ns"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    m.extend(
        SAMPLERS
            .iter()
            .map(|id| (format!("engine.sampler_share.{id}"), "ratio")),
    );
    m.extend(
        ["ervs", "erjs"]
            .iter()
            .map(|id| (format!("sampling.{id}_ns"), "ns")),
    );
    m.extend(
        OVERHEAD
            .iter()
            .map(|e| (format!("trace.overhead.{e}"), "ratio")),
    );
    m
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name` (last write wins).
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Every `(name, value)`, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.0.iter()
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The host-timed samples behind the pooled end-to-end metrics, at the
/// reference host speed (see `crate::calib`). An untraced run pools them
/// over all its processes before it takes a statistic, so each statistic
/// rests on every sample of the run.
#[derive(Debug, Default)]
pub struct Samples {
    /// Per-set-up seconds.
    pub setup_s: Vec<f64>,
    /// Per-request latency, ms.
    pub latency_ms: Vec<f64>,
    /// Per-update-batch latency, ms. Not pooled: now and then one process
    /// runs all its updates 40-70 % slower than the others, so a run
    /// reports the median over its processes of each one's
    /// `update_mean_ms`.
    pub update_ms: Vec<f64>,
    /// Walk steps per second of each timed unit (drain pass, serving window).
    pub rate: Vec<f64>,
}

impl Samples {
    /// Puts `setup_s` (median), `steps_per_s` (median rate),
    /// `latency_p50_ms`, `latency_p90_ms` and, given update samples,
    /// `update_mean_ms` (trimmed mean).
    pub fn metrics(&self, m: &mut Metrics) {
        m.put("setup_s", stats::median(&self.setup_s));
        m.put("steps_per_s", stats::median(&self.rate));
        let lat = Summary::of(&self.latency_ms);
        m.put("latency_p50_ms", lat.as_ref().map_or(f64::NAN, |s| s.p50));
        m.put(
            "latency_p90_ms",
            lat.and_then(|s| s.at(0.9)).unwrap_or(f64::NAN),
        );
        if !self.update_ms.is_empty() {
            m.put("update_mean_ms", stats::trimmed_mean(&self.update_ms));
        }
    }

    /// The pooled kinds.
    fn kinds(&mut self) -> [(&'static str, &mut Vec<f64>); 3] {
        [
            ("setup_s", &mut self.setup_s),
            ("latency_ms", &mut self.latency_ms),
            ("rate", &mut self.rate),
        ]
    }

    /// One `SAMPLES <kind> <value>...` line per pooled kind.
    pub fn lines(&mut self) -> Vec<String> {
        self.kinds()
            .into_iter()
            .map(|(kind, v)| {
                let values: Vec<String> = v.iter().map(|x| format!("{x:?}")).collect();
                format!("SAMPLES {kind} {}", values.join(" "))
            })
            .collect()
    }

    /// Adds the values of a `SAMPLES` line split into `fields`; false when
    /// it is not one.
    pub fn absorb(&mut self, fields: &[&str]) -> bool {
        let [tag, kind, values @ ..] = fields else {
            return false;
        };
        if *tag != "SAMPLES" {
            return false;
        }
        match self.kinds().into_iter().find(|(k, _)| k == kind) {
            Some((_, v)) => {
                v.extend(values.iter().map(|x| x.parse().unwrap_or(f64::NAN)));
                true
            }
            None => false,
        }
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
/// with exactly the catalogue's metrics of the chosen kind. Errors name
/// the catalogue metrics the run did not produce, or produced as a
/// non-finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Metrics,
    catalogue: &[(String, &str)],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(catalogue.len());
    let mut missing = Vec::new();
    for (name, unit) in catalogue {
        match values.get(name) {
            Some(v) if v.is_finite() => {
                body.push(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                ));
            }
            _ => missing.push(name.as_str()),
        }
    }
    if !missing.is_empty() {
        return Err(format!("metrics not produced: {}", missing.join(", ")));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// `END_TO_END` in the catalogue shape.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the program prints, with
    /// the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            json[start..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let field = |key: &str| {
                        let at = obj.find(&format!("\"{key}\"")).expect("key present");
                        let rest = &obj[at + key.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: Vec<(String, &str)>| -> Vec<(String, String)> {
            c.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), own(end_to_end()));
        assert_eq!(listed("per_layer"), own(per_layer()));
    }

    #[test]
    fn samples_round_trip_through_their_lines() {
        let mut a = Samples {
            setup_s: vec![0.5],
            latency_ms: vec![1.5, 2.25],
            update_ms: vec![4.0],
            rate: vec![1e6],
        };
        let mut pooled = Samples::default();
        for _ in 0..2 {
            for line in a.lines() {
                let fields: Vec<&str> = line.split_whitespace().collect();
                assert!(pooled.absorb(&fields));
            }
        }
        assert_eq!(pooled.latency_ms, [1.5, 2.25, 1.5, 2.25]);
        assert!(pooled.update_ms.is_empty(), "updates are not pooled");
        let mut m = Metrics::default();
        pooled.metrics(&mut m);
        assert_eq!(m.get("update_mean_ms"), None);
        assert_eq!(pooled.rate, [1e6, 1e6]);
        assert_eq!(pooled.setup_s, [0.5, 0.5]);
        assert!(!pooled.absorb(&["METRIC", "x", "1"]));
        assert!(!pooled.absorb(&["SAMPLES", "nope", "1"]));
    }

    #[test]
    fn result_line_requires_every_metric() {
        let cat = vec![("a".to_string(), "s"), ("b".to_string(), "ms")];
        let mut m = Metrics::default();
        m.put("a", 1.25);
        assert!(result_line(true, 1, 0, &m, &cat).unwrap_err().contains('b'));
        m.put("b", f64::NAN);
        assert!(result_line(true, 1, 0, &m, &cat).is_err());
        m.put("b", 0.5);
        m.put("extra", 9.0);
        assert_eq!(
            result_line(true, 3, 0, &m, &cat).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 0.5, \"unit\": \"ms\"}}}"
        );
    }
}
