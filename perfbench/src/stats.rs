//! Summary statistics and the result line the benchmark ends with.

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (`statistics.quantiles(..., method="inclusive")`); NaN if empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The arithmetic mean; NaN if empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarizes.
    pub samples: usize,
}

/// Prints one metric as a report line: name, value, unit, sample count.
pub fn print_metric(m: &Metric) {
    println!(
        "  {:<44} {:>14.4} {:<8} (n={})",
        m.name, m.value, m.unit, m.samples
    );
}

/// The JSON object the benchmark prints as its last line. Values are
/// printed with every digit Rust's shortest round-trip formatting gives.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "latency_p50_ms".into(),
                unit: "ms",
                value: 1.25,
                samples: 3,
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.25, "unit": "ms"}}}"#
        );
    }
}
