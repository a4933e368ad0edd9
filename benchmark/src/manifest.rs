//! `BENCHMARK.json`, read with `jinjing_obs::json` (no python, no serde):
//! the regression bounds for `compare`, and a guard that the names the
//! harness prints are the names the manifest promises.

use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::Better;
use crate::workloads::Workload;
use jinjing_obs::json::{self, Json};

/// One end-to-end metric as the manifest declares it.
#[derive(Debug, Clone)]
pub struct Bounded {
    pub name: String,
    pub better: Better,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    pub per_layer: Vec<String>,
}

/// Load `BENCHMARK.json` from the working directory (the repository root:
/// `run.sh` changes there first).
pub fn load() -> Result<Manifest, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    parse(&text)
}

fn names(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    doc.get(key)
        .ok_or_else(|| format!("BENCHMARK.json has no {key:?}"))?
        .elements()
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: a {key} entry has no name"))
        })
        .collect()
}

pub fn parse(text: &str) -> Result<Manifest, String> {
    let doc = json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut end_to_end = Vec::new();
    for e in doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no \"end_to_end\"")?
        .elements()
    {
        let field = |k: &str| {
            e.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("BENCHMARK.json: end_to_end entry without {k:?}"))
        };
        end_to_end.push(Bounded {
            name: field("name")?.to_string(),
            better: match field("better")? {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("BENCHMARK.json: better = {other:?}")),
            },
            bound: e
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: end_to_end entry without a bound")?,
        });
    }
    Ok(Manifest {
        workloads: names(&doc, "workloads")?,
        end_to_end,
        per_layer: names(&doc, "per_layer")?,
    })
}

fn same_names(what: &str, printed: &[MetricDef], promised: &[String]) -> Result<(), String> {
    let printed: Vec<&str> = printed.iter().map(|d| d.name).collect();
    let promised: Vec<&str> = promised.iter().map(String::as_str).collect();
    if printed == promised {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json {what} metrics {promised:?} are not the ones the harness prints {printed:?}"
        ))
    }
}

impl Manifest {
    /// Refuse to run a workload the manifest does not list, or to print
    /// metrics under other names than it promises.
    pub fn check(&self, w: &Workload) -> Result<(), String> {
        if !self.workloads.iter().any(|n| n == w.name) {
            return Err(format!(
                "BENCHMARK.json does not list workload {:?}",
                w.name
            ));
        }
        let e2e: Vec<String> = self.end_to_end.iter().map(|b| b.name.clone()).collect();
        same_names("end_to_end", END_TO_END, &e2e)?;
        same_names("per_layer", PER_LAYER, &self.per_layer)
    }

    #[cfg(test)]
    fn bounded(&self, name: &str) -> Option<&Bounded> {
        self.end_to_end.iter().find(|b| b.name == name)
    }
}

/// `jjbench manifest`: the `BENCHMARK.json` the registry implies, bounds
/// included. The committed file is this output; `compare` and the driver
/// read the file, never the registry.
pub fn render() -> String {
    use crate::workloads::WORKLOADS;
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS));
    let quoted = |s: &str| {
        let mut q = String::new();
        json::write_escaped(&mut q, s);
        q
    };
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "    {{\"name\": {}, \"why\": {}}}",
                    quoted(w.name),
                    quoted(w.why)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n");
    let better = |d: &MetricDef| {
        if d.better == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    out.push_str("  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                    quoted(d.name),
                    quoted(d.unit),
                    better(d),
                    d.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                    quoted(d.name),
                    quoted(d.unit),
                    better(d)
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Bounds, units, directions and reasons live in the registry *and* in
    /// the committed file: this keeps them from drifting apart.
    #[test]
    fn the_committed_manifest_is_the_rendered_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            render(),
            "regenerate with: jjbench manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn a_manifest_with_the_registrys_names_passes_and_others_fail() {
        let m = parse(&render()).expect("parses");
        assert_eq!(m.workloads.len(), WORKLOADS.len());
        assert!(m
            .end_to_end
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
        assert_eq!(m.bounded("setup_s").unwrap().better, Better::Lower);
        assert_eq!(m.bounded("throughput_rps").unwrap().better, Better::Higher);
        for w in &WORKLOADS {
            m.check(w).expect("names agree");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let mut renamed = m.clone();
        renamed.per_layer[0] = "wan.build".to_string();
        assert!(renamed.check(&WORKLOADS[0]).is_err());
        let mut missing = m;
        missing.workloads.retain(|n| n != "fix-medium");
        assert!(missing
            .check(crate::workloads::find("fix-medium").unwrap())
            .is_err());
    }
}
