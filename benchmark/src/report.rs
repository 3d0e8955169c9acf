//! Metric values and their rendering: the driver's result line, the
//! printed table and `out/result.json`.

use crate::check::Tally;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// JSON string literal of `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number with every digit the measurement has. JSON has no NaN or
/// infinity; a value that is not finite is a bug upstream and is rendered
/// as `null` so the consumer rejects it rather than misreads it.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "null".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}`
pub fn metrics_object(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one-line result a single-workload run ends its standard output
/// with: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(tally: Tally, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        metrics_object(metrics)
    )
}

/// Reads a result line back (the all-workloads parent parses its
/// children's output with this). Only the shape [`result_line`] writes is
/// understood.
pub fn parse_result_line(line: &str) -> Option<(Tally, Vec<Metric>)> {
    let after = |key: &str| -> Option<&str> {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let int = |key: &str| -> Option<u64> {
        let rest = after(key)?;
        let end = rest.find(|c: char| !c.is_ascii_digit())?;
        rest[..end].parse().ok()
    };
    let tally = Tally {
        attempted: int("\"attempted\":")?,
        failed: int("\"failed\":")?,
    };
    let mut metrics = Vec::new();
    let mut rest = after("\"metrics\":")?.strip_prefix('{')?;
    while let Some(q) = rest.find('"') {
        let tail = &rest[q + 1..];
        let name = &tail[..tail.find('"')?];
        let tail = &tail[tail.find("\"value\":")? + 8..];
        let end = tail.find(',')?;
        let value = tail[..end].trim().parse().unwrap_or(f64::NAN);
        let tail = &tail[tail.find("\"unit\":")? + 7..];
        let tail = &tail[tail.find('"')? + 1..];
        let unit_end = tail.find('"')?;
        metrics.push(Metric::new(name, value, &tail[..unit_end]));
        rest = &tail[tail.find('}')? + 1..];
    }
    Some((tally, metrics))
}

/// Aligned `name value unit note` rows; `note` says, for a per-layer
/// metric, what it is expected to move.
pub fn table(metrics: &[Metric], note: impl Fn(&str) -> &'static str) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    metrics
        .iter()
        .map(|m| {
            let row = format!(
                "  {:<width$}  {:>14.4}  {:<5}  {}",
                m.name,
                m.value,
                m.unit,
                note(&m.name)
            );
            format!("{}\n", row.trim_end())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.2034), "1.2034");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(0.000_012_5), "0.0000125");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1e20), "100000000000000000000");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let metrics = vec![
            Metric::new("op_ms", 1.2034, "ms"),
            Metric::new("setup_s", 0.8127, "s"),
        ];
        let tally = Tally {
            attempted: 1000,
            failed: 0,
        };
        let line = result_line(tally, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"op_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(parse_result_line(&line), Some((tally, metrics)));
        // A failed op, or nothing attempted, is not a correct run.
        let bad = Tally {
            attempted: 10,
            failed: 1,
        };
        assert!(result_line(bad, &[]).starts_with("{\"correct\": false"));
        assert!(result_line(Tally::default(), &[]).starts_with("{\"correct\": false"));
        assert_eq!(parse_result_line("not json"), None);
    }

    #[test]
    fn table_aligns_names() {
        let metrics = [
            Metric::new("a", 1.0, "ms"),
            Metric::new("long.name", 2.5, "1/s"),
        ];
        let t = table(&metrics, |name| if name == "a" { "-> op_ms" } else { "" });
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].find("1.0000"), lines[1].find("2.5000"));
        assert!(lines[0].ends_with("ms     -> op_ms") && lines[1].ends_with("1/s"));
    }
}
