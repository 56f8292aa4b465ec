//! What a workload run hands back, and how it is printed: one line per
//! metric for people, then the one-line JSON result.

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub samples: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (missing, lost, or outside their
    /// bounds).
    pub failed: u64,
    /// Outputs that differ from their oracle.
    pub mismatches: u64,
    /// Why the measurement itself is invalid (empty when it is valid).
    pub invalid: Vec<String>,
    /// The gated metrics of this run (`end_to_end` or `per_layer`).
    pub gated: Vec<Metric>,
    /// Further metrics printed for people, not gated.
    pub reported: Vec<Metric>,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Add a gated metric.
    pub fn gate(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.gated.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Add a reported (ungated) metric.
    pub fn report(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.reported.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Fold another outcome's counts, metrics and notes into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.invalid.extend(other.invalid);
        self.gated.extend(other.gated);
        self.reported.extend(other.reported);
        self.notes.extend(other.notes);
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every output matched its oracle, the measurement is
    /// valid, and every gated value is a finite number.
    pub fn correct(&self) -> bool {
        self.mismatches == 0
            && self.invalid.is_empty()
            && self.gated.iter().all(|m| m.value.is_finite())
    }

    /// Human-readable metric lines.
    pub fn lines(&self) -> Vec<String> {
        let fmt = |kind: &str, m: &Metric| {
            format!(
                "{kind} {:<40} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            )
        };
        let mut out: Vec<String> = self.notes.clone();
        out.extend(self.invalid.iter().map(|why| format!("INVALID: {why}")));
        out.extend(self.gated.iter().map(|m| fmt("gated   ", m)));
        out.extend(self.reported.iter().map(|m| fmt("reported", m)));
        out.push(format!(
            "operations: attempted {} failed {} oracle mismatches {}",
            self.attempted, self.failed, self.mismatches
        ));
        out
    }

    /// The one-line JSON result (gated metrics only).
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .gated
            .iter()
            .map(|m| {
                // A non-finite value cannot be written as JSON; the run
                // is then reported as incorrect with a 0 placeholder.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_gated_metric_and_the_counts() {
        let mut o = Outcome::default();
        o.gate("latency_us", 71.25, "us", 100);
        o.gate("setup_s", 0.5, "s", 5);
        o.report("extra", 1.0, "count", 1);
        o.check(true);
        o.check(false);
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"latency_us\": {\"value\": 71.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        o.invalid.push("lateness".into());
        assert!(!o.correct());
        o.invalid.clear();
        o.mismatches = 1;
        assert!(!o.correct());
    }
}
