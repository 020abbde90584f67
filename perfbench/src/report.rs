//! A run's result: named metrics with units and sample counts, the
//! correctness verdict, and the reasons a run is invalid.

use crate::stats::Samples;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, when it is a statistic of samples.
    pub n: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Report {
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed with the run but kept out of the result line: they
    /// swing with host load, or with the seeded corpus, by more than any
    /// bound could absorb.
    pub info: Vec<Metric>,
    /// Correctness failures; any one fails the run.
    pub mismatches: Vec<String>,
    /// Reasons the numbers cannot stand (generator behind schedule, too
    /// few samples for a percentile); any one voids the run.
    pub invalid: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n: None,
        });
    }

    pub fn counted(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n: Some(n),
        });
    }

    /// The `q` percentile of `samples`; voids the run when too few
    /// samples lie beyond it.
    pub fn percentile(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        match samples.percentile(q) {
            Some(v) => self.counted(name, v, unit, samples.len()),
            None => self.invalid.push(format!(
                "{name}: {} samples leave fewer than 10 beyond the {q} quantile",
                samples.len()
            )),
        }
    }

    /// An informational percentile: printed with its sample count, or as
    /// withheld when too few samples lie beyond it.
    pub fn info_percentile(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        match samples.percentile(q) {
            Some(v) => self.info.push(Metric {
                name: name.to_string(),
                value: v,
                unit,
                n: Some(samples.len()),
            }),
            None => println!(
                "# info {name}: withheld, {} samples leave fewer than 10 beyond the {q} quantile",
                samples.len()
            ),
        }
    }

    pub fn info_value(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.info.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n: Some(n),
        });
    }

    /// A layer this workload does not exercise: reported as 0 from 0
    /// samples.
    pub fn not_exercised(&mut self, name: &str, unit: &'static str) {
        self.counted(name, 0.0, unit, 0);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Human-readable metric lines, each with its unit and sample count.
    pub fn metric_lines(&self) -> String {
        let mut text = String::new();
        let tagged = self
            .info
            .iter()
            .map(|m| ("info", m))
            .chain(self.metrics.iter().map(|m| ("metric", m)));
        for (tag, m) in tagged {
            let n = match m.n {
                Some(0) => " (not exercised by this workload)".to_string(),
                Some(n) => format!(" (n={n})"),
                None => String::new(),
            };
            let _ = writeln!(text, "# {tag} {} = {} {}{n}", m.name, m.value, m.unit);
        }
        text
    }

    /// The final result line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// JSON has no NaN or infinity; a metric that is not finite is a bug in
/// the benchmark.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.value("setup_s", 0.25, "s");
        r.counted("latency_p50_ms", 1.5, "ms", 3);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn thin_percentiles_void_the_run() {
        let mut r = Report::default();
        r.percentile("p99", &Samples::new(vec![1.0; 500]), 0.99, "ms");
        assert!(r.metrics.is_empty());
        assert_eq!(r.invalid.len(), 1);
    }
}
