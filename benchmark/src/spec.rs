//! The metric declarations of `BENCHMARK.json`.

use crate::stats::Better;
use serde_json::Value;
use std::path::Path;

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The declared end-to-end and per-layer metrics.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Reported by end-to-end runs.
    pub end_to_end: Vec<Declared>,
    /// Reported by traced runs.
    pub per_layer: Vec<Declared>,
}

fn declared(list: &Value, key: &str) -> Result<Vec<Declared>, String> {
    let items =
        list[key].as_array().ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?;
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m[f].as_str()
                    .map(String::from)
                    .ok_or_else(|| format!("{key} entry without {f}"))
            };
            let better = field("better")?;
            Ok(Declared {
                name: field("name")?,
                unit: field("unit")?,
                better: Better::parse(&better).ok_or(format!("bad direction '{better}'"))?,
                bound: m["bound"].as_f64(),
            })
        })
        .collect()
}

/// Read `BENCHMARK.json`.
pub fn load(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Spec { end_to_end: declared(&v, "end_to_end")?, per_layer: declared(&v, "per_layer")? })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repository_declaration_parses() {
        let spec =
            load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap();
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> =
            spec.end_to_end.iter().chain(&spec.per_layer).map(|m| m.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }
}
