//! Named metrics and the result line.

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Renders a float as JSON: Rust's shortest round-trip form keeps every
/// significant digit; non-finite values, which JSON cannot carry, read 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The one-line JSON result: correctness, op counts, and every metric
/// with its unit.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_metric_with_all_digits() {
        let line = result_line(
            true,
            850,
            0,
            &[
                metric("op_p50_ms", 21.123456789, "ms"),
                metric("ops_per_s", 85.0, "1/s"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 850, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 21.123456789, \"unit\": \"ms\"}, \
             \"ops_per_s\": {\"value\": 85.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        let line = result_line(false, 1, 1, &[metric("x", f64::NAN, "ms")]);
        assert!(line.contains("\"value\": 0.0"));
    }
}
