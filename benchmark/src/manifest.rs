//! `check-manifest`: refuse to run unless `BENCHMARK.json` satisfies every
//! rule of the driver's contract and names exactly what this binary prints.
//! An earlier benchmark for this repository was thrown out as
//! `manifest_invalid` before a single number was recorded; every `run`
//! starts here so that cannot happen silently again.

use crate::json::{self, Value};
use crate::metrics::{self, MetricDef};
use crate::WorkloadKind;

/// Runs the driver makes: `FIXED_RUNS + RUNS_PER_WORKLOAD * workloads`.
const FIXED_RUNS: u64 = 4;
const RUNS_PER_WORKLOAD: u64 = 22;
/// Seconds all of the driver's runs (and its two builds) must fit in.
const TOTAL_BUDGET_S: u64 = 3420;
/// What one run costs beyond `run_seconds` on the reference sandbox: three
/// set-ups, the warm-up, input generation and the after-run checks.
const RUN_OVERHEAD_S: u64 = 15;
const MAX_FILE_BYTES: usize = 64 * 1024;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn is_path(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 200
        && !s.starts_with('/')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
        && !s.split('/').any(|part| part == "..")
}

/// The keys of `value`, if it is an object with exactly `expected` (in any
/// order, none missing, none extra, none repeated).
fn exact_keys(value: &Value, expected: &[&str], what: &str, errors: &mut Vec<String>) -> bool {
    let Some(members) = value.as_obj() else {
        errors.push(format!("{what} is not an object"));
        return false;
    };
    let mut ok = true;
    for key in expected {
        match members.iter().filter(|(k, _)| k == key).count() {
            1 => {}
            0 => {
                errors.push(format!("{what} lacks the key \"{key}\""));
                ok = false;
            }
            _ => {
                errors.push(format!("{what} repeats the key \"{key}\""));
                ok = false;
            }
        }
    }
    for (key, _) in members {
        if !expected.contains(&key.as_str()) {
            errors.push(format!("{what} has the unknown key \"{key}\""));
            ok = false;
        }
    }
    ok
}

/// Every violation found in the manifest text; empty means it is valid.
pub fn check(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if text.len() > MAX_FILE_BYTES {
        errors.push(format!("the file is {} bytes, over 64 KiB", text.len()));
        return errors;
    }
    let manifest = match json::parse(text) {
        Ok(value) => value,
        Err(e) => {
            errors.push(format!("not valid JSON: {e}"));
            return errors;
        }
    };
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if !exact_keys(&manifest, &top, "the manifest", &mut errors) {
        return errors;
    }
    let field = |key: &str| manifest.get(key).expect("exact_keys checked the key");
    let mut names: Vec<String> = Vec::new();
    let mut claim_name = |name: &str, what: &str, errors: &mut Vec<String>| {
        if !is_name(name) {
            errors.push(format!(
                "{what} name \"{name}\" must start with a letter or digit and be at most 64 of [A-Za-z0-9_.-]"
            ));
        }
        if names.iter().any(|n| n == name) {
            errors.push(format!("the name \"{name}\" is used more than once"));
        }
        names.push(name.to_string());
    };

    // paths
    let mut paths: Vec<&str> = Vec::new();
    match field("paths").as_arr() {
        Some(items) if (1..=16).contains(&items.len()) => {
            for item in items {
                match item.as_str() {
                    Some(path) if is_path(path) => paths.push(path.trim_end_matches('/')),
                    _ => errors.push(format!(
                        "path {} must be a relative path of at most 200 of [A-Za-z0-9_.-/] without \"..\"",
                        item.render()
                    )),
                }
            }
        }
        _ => errors.push("\"paths\" must list 1 to 16 directories".to_string()),
    }
    if paths != ["benchmark"] {
        errors.push("\"paths\" must list \"benchmark\" and nothing else".to_string());
    }

    // command
    match field("command").as_arr() {
        Some(items) if (1..=32).contains(&items.len()) => {
            for item in items {
                let Some(arg) = item.as_str() else {
                    errors.push(format!("command part {} is not a string", item.render()));
                    continue;
                };
                if arg.chars().count() > 200 {
                    errors.push("a command part is longer than 200 characters".to_string());
                }
                if arg.starts_with('/') || arg.split('/').any(|part| part == "..") {
                    errors.push(format!(
                        "command part \"{arg}\" starts with \"/\" or leaves the repository through \"..\""
                    ));
                } else if arg.contains('/')
                    && !paths.iter().any(|p| arg.starts_with(&format!("{p}/")))
                {
                    errors.push(format!(
                        "command part \"{arg}\" names a file outside \"paths\""
                    ));
                }
            }
        }
        _ => errors.push("\"command\" must be a list of 1 to 32 strings".to_string()),
    }

    // workloads
    let mut workload_count = 0u64;
    match field("workloads").as_arr() {
        Some(items) if (2..=8).contains(&items.len()) => {
            workload_count = items.len() as u64;
            let mut listed = Vec::new();
            for item in items {
                if !exact_keys(item, &["name", "why"], "a workload", &mut errors) {
                    continue;
                }
                match item.get("name").and_then(Value::as_str) {
                    Some(name) => {
                        claim_name(name, "workload", &mut errors);
                        listed.push(name.to_string());
                    }
                    None => errors.push("a workload name is not a string".to_string()),
                }
                match item.get("why").and_then(Value::as_str) {
                    Some(why)
                        if !why.trim().is_empty()
                            && why.chars().count() <= 200
                            && !why.contains('\n') => {}
                    _ => errors.push(
                        "every workload needs a \"why\" of one line, at most 200 characters"
                            .to_string(),
                    ),
                }
            }
            let printed: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
            for name in &printed {
                if !listed.iter().any(|l| l == name) {
                    errors.push(format!(
                        "workload \"{name}\" is run by the binary but not listed"
                    ));
                }
            }
            for name in &listed {
                if !printed.contains(&name.as_str()) {
                    errors.push(format!(
                        "workload \"{name}\" is listed but the binary has no such workload"
                    ));
                }
            }
        }
        _ => errors.push("\"workloads\" must list 2 to 8 workloads".to_string()),
    }

    // metrics
    check_metrics(
        field("end_to_end"),
        "end_to_end",
        16,
        metrics::END_TO_END,
        true,
        &mut claim_name,
        &mut errors,
    );
    check_metrics(
        field("per_layer"),
        "per_layer",
        128,
        metrics::PER_LAYER,
        false,
        &mut claim_name,
        &mut errors,
    );

    // run_seconds and the total time budget
    match field("run_seconds").as_f64() {
        Some(seconds) if seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds) => {
            let runs = FIXED_RUNS + RUNS_PER_WORKLOAD * workload_count;
            let total = runs * (seconds as u64 + RUN_OVERHEAD_S);
            if workload_count > 0 && total > TOTAL_BUDGET_S {
                errors.push(format!(
                    "{runs} runs of {seconds} s plus about {RUN_OVERHEAD_S} s of set-up and checks each need {total} s, over the {TOTAL_BUDGET_S} s cap"
                ));
            }
        }
        _ => errors.push("\"run_seconds\" must be a whole number from 1 to 60".to_string()),
    }
    errors
}

#[allow(clippy::too_many_arguments)]
fn check_metrics(
    list: &Value,
    what: &str,
    most: usize,
    table: &[MetricDef],
    bounded: bool,
    claim_name: &mut dyn FnMut(&str, &str, &mut Vec<String>),
    errors: &mut Vec<String>,
) {
    let items = match list.as_arr() {
        Some(items) if (1..=most).contains(&items.len()) => items,
        _ => {
            errors.push(format!("\"{what}\" must list 1 to {most} metrics"));
            return;
        }
    };
    let keys: &[&str] = if bounded {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    let mut listed: Vec<String> = Vec::new();
    for item in items {
        if !exact_keys(item, keys, &format!("a {what} metric"), errors) {
            continue;
        }
        let name = item.get("name").and_then(Value::as_str).unwrap_or("");
        let unit = item.get("unit").and_then(Value::as_str).unwrap_or("");
        let better = item.get("better").and_then(Value::as_str).unwrap_or("");
        claim_name(name, what, errors);
        listed.push(name.to_string());
        if !is_unit(unit) {
            errors.push(format!(
                "{name}: unit \"{unit}\" must be 1 to 16 of [A-Za-z0-9_/%.-]"
            ));
        }
        if better != "lower" && better != "higher" {
            errors.push(format!(
                "{name}: \"better\" must be \"lower\" or \"higher\""
            ));
        }
        if bounded {
            match item.get("bound").and_then(Value::as_f64) {
                Some(bound) if bound > 0.0 && bound <= 0.25 => {}
                _ => errors.push(format!(
                    "{name}: \"bound\" must be a number above 0 and at most 0.25"
                )),
            }
        }
        match table.iter().find(|def| def.name == name) {
            Some(def) => {
                if def.unit != unit || def.better.word() != better {
                    errors.push(format!(
                        "{name}: the binary prints it in \"{}\", {} is better; the manifest says \"{unit}\", {better}",
                        def.unit,
                        def.better.word()
                    ));
                }
            }
            None => errors.push(format!(
                "{what} metric \"{name}\" is listed but the binary does not print it"
            )),
        }
    }
    for def in table {
        if !listed.iter().any(|l| l == def.name) {
            errors.push(format!(
                "{what} metric \"{}\" is printed by the binary but not listed",
                def.name
            ));
        }
    }
    if bounded {
        let setup_ok = items.iter().any(|item| {
            item.get("name").and_then(Value::as_str) == Some("setup_s")
                && item.get("unit").and_then(Value::as_str) == Some("s")
                && item.get("better").and_then(Value::as_str) == Some("lower")
        });
        if !setup_ok {
            errors.push(
                "\"end_to_end\" must include \"setup_s\" in \"s\" with \"better\": \"lower\""
                    .to_string(),
            );
        }
    }
}

/// The bound of every end-to-end metric, for `compare`.
pub fn bounds(text: &str) -> Result<Vec<(String, f64)>, String> {
    let manifest = json::parse(text)?;
    manifest
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("the manifest has no \"end_to_end\" list")?
        .iter()
        .map(|item| {
            let name = item.get("name").and_then(Value::as_str);
            let bound = item.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "an end_to_end metric lacks a name or a bound".to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{num, obj, str};

    /// A manifest the check accepts, built from the binary's own tables.
    fn valid() -> Value {
        let metric = |def: &MetricDef, bound: Option<f64>| {
            let mut members = vec![
                ("name", str(def.name)),
                ("unit", str(def.unit)),
                ("better", str(def.better.word())),
            ];
            if let Some(bound) = bound {
                members.push(("bound", num(bound)));
            }
            obj(members)
        };
        obj(vec![
            (
                "command",
                Value::Arr(vec![
                    str("cargo"),
                    str("run"),
                    str("--manifest-path"),
                    str("benchmark/Cargo.toml"),
                ]),
            ),
            ("paths", Value::Arr(vec![str("benchmark")])),
            ("run_seconds", num(10.0)),
            (
                "workloads",
                Value::Arr(
                    WorkloadKind::ALL
                        .iter()
                        .map(|w| obj(vec![("name", str(w.name())), ("why", str(w.why()))]))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Value::Arr(
                    metrics::END_TO_END
                        .iter()
                        .map(|d| metric(d, Some(0.1)))
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Value::Arr(metrics::PER_LAYER.iter().map(|d| metric(d, None)).collect()),
            ),
        ])
    }

    /// Replace a top-level field.
    fn with(mut manifest: Value, key: &str, value: Value) -> Value {
        if let Value::Obj(members) = &mut manifest {
            for (k, v) in members.iter_mut() {
                if k == key {
                    *v = value.clone();
                }
            }
        }
        manifest
    }

    /// Edit one member of the `index`-th entry of a list field.
    fn with_entry(manifest: Value, list: &str, index: usize, key: &str, value: Value) -> Value {
        let mut items = manifest.get(list).unwrap().as_arr().unwrap().to_vec();
        items[index] = with(items[index].clone(), key, value);
        with(manifest, list, Value::Arr(items))
    }

    fn broken(manifest: &Value, expect: &str) {
        let errors = check(&manifest.render());
        assert!(
            errors.iter().any(|e| e.contains(expect)),
            "expected an error containing {expect:?}, got {errors:?}"
        );
    }

    #[test]
    fn the_reference_manifest_is_valid() {
        assert_eq!(check(&valid().render()), Vec::<String>::new());
    }

    #[test]
    fn the_committed_manifest_is_valid() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(check(&text), Vec::<String>::new());
    }

    #[test]
    fn one_broken_manifest_per_rule() {
        let v = valid();
        // File-level rules.
        assert!(check("{").iter().any(|e| e.contains("not valid JSON")));
        let huge = format!("{}{}", v.render(), " ".repeat(MAX_FILE_BYTES));
        assert!(check(&huge).iter().any(|e| e.contains("over 64 KiB")));
        let mut extra = v.clone();
        if let Value::Obj(members) = &mut extra {
            members.push(("claim".to_string(), Value::Null));
        }
        broken(&extra, "unknown key \"claim\"");
        let mut missing = v.clone();
        if let Value::Obj(members) = &mut missing {
            members.retain(|(k, _)| k != "per_layer");
        }
        broken(&missing, "lacks the key \"per_layer\"");
        let mut twice = v.clone();
        if let Value::Obj(members) = &mut twice {
            members.push(("paths".to_string(), Value::Arr(vec![str("benchmark")])));
        }
        broken(&twice, "repeats the key \"paths\"");

        // paths
        broken(
            &with(v.clone(), "paths", Value::Arr(vec![])),
            "1 to 16 directories",
        );
        broken(
            &with(v.clone(), "paths", Value::Arr(vec![str("/abs")])),
            "relative path",
        );
        broken(
            &with(
                v.clone(),
                "paths",
                Value::Arr(vec![str("benchmark/../crates")]),
            ),
            "relative path",
        );
        broken(
            &with(
                v.clone(),
                "paths",
                Value::Arr(vec![str("benchmark"), str("crates")]),
            ),
            "\"benchmark\" and nothing else",
        );

        // command
        broken(
            &with(v.clone(), "command", Value::Arr(vec![])),
            "1 to 32 strings",
        );
        broken(
            &with(
                v.clone(),
                "command",
                Value::Arr(vec![str("bash"), str("/root/run.sh")]),
            ),
            "starts with \"/\"",
        );
        broken(
            &with(
                v.clone(),
                "command",
                Value::Arr(vec![str("bash"), str("ci/run.sh")]),
            ),
            "outside \"paths\"",
        );
        broken(
            &with(
                v.clone(),
                "command",
                Value::Arr(vec![str("bash"), str(&"x".repeat(201))]),
            ),
            "longer than 200",
        );
        broken(
            &with(
                v.clone(),
                "command",
                Value::Arr(vec![str("bash"), num(1.0)]),
            ),
            "is not a string",
        );

        // run_seconds and the time cap
        broken(
            &with(v.clone(), "run_seconds", num(0.0)),
            "whole number from 1 to 60",
        );
        broken(
            &with(v.clone(), "run_seconds", num(2.5)),
            "whole number from 1 to 60",
        );
        broken(
            &with(v.clone(), "run_seconds", num(61.0)),
            "whole number from 1 to 60",
        );
        broken(
            &with(v.clone(), "run_seconds", num(30.0)),
            "over the 3420 s cap",
        );

        // workloads
        let one = Value::Arr(v.get("workloads").unwrap().as_arr().unwrap()[..1].to_vec());
        broken(&with(v.clone(), "workloads", one), "2 to 8 workloads");
        broken(
            &with_entry(v.clone(), "workloads", 0, "name", str("ingest")),
            "the binary has no such workload",
        );
        broken(
            &with_entry(v.clone(), "workloads", 0, "name", str("ingest")),
            "run by the binary but not listed",
        );
        broken(
            &with_entry(v.clone(), "workloads", 0, "why", str("")),
            "needs a \"why\"",
        );
        broken(
            &with_entry(v.clone(), "workloads", 0, "why", str("two\nlines")),
            "needs a \"why\"",
        );
        broken(
            &with_entry(v.clone(), "workloads", 0, "why", str(&"y".repeat(201))),
            "needs a \"why\"",
        );
        let mut no_why = v.get("workloads").unwrap().as_arr().unwrap().to_vec();
        no_why[0] = obj(vec![("name", str("ingest_durable"))]);
        broken(
            &with(v.clone(), "workloads", Value::Arr(no_why)),
            "lacks the key \"why\"",
        );

        // names
        broken(
            &with_entry(v.clone(), "per_layer", 0, "name", str("crypto sha")),
            "must start with a letter or digit",
        );
        broken(
            &with_entry(v.clone(), "per_layer", 0, "name", str(".hidden")),
            "must start with a letter or digit",
        );
        broken(
            &with_entry(v.clone(), "per_layer", 0, "name", str(&"n".repeat(65))),
            "must start with a letter or digit",
        );
        broken(
            &with_entry(v.clone(), "per_layer", 0, "name", str("setup_s")),
            "used more than once",
        );

        // end_to_end
        broken(
            &with(v.clone(), "end_to_end", Value::Arr(vec![])),
            "1 to 16 metrics",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 1, "unit", str("ops per second")),
            "must be 1 to 16",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 1, "unit", str("µs")),
            "must be 1 to 16",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 1, "better", str("faster")),
            "\"lower\" or \"higher\"",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 1, "better", str("lower")),
            "the binary prints it in",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 1, "bound", num(0.3)),
            "at most 0.25",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 1, "bound", num(0.0)),
            "at most 0.25",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 1, "bound", str("0.1")),
            "at most 0.25",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 0, "name", str("boot_s")),
            "must include \"setup_s\"",
        );
        broken(
            &with_entry(v.clone(), "end_to_end", 0, "unit", str("ms")),
            "must include \"setup_s\"",
        );
        let mut unbounded = v.get("end_to_end").unwrap().as_arr().unwrap().to_vec();
        if let Value::Obj(members) = &mut unbounded[2] {
            members.retain(|(k, _)| k != "bound");
        }
        broken(
            &with(v.clone(), "end_to_end", Value::Arr(unbounded)),
            "lacks the key \"bound\"",
        );
        let seventeen: Vec<Value> = (0..17)
            .map(|i| {
                obj(vec![
                    ("name", str(&format!("m{i}"))),
                    ("unit", str("s")),
                    ("better", str("lower")),
                    ("bound", num(0.1)),
                ])
            })
            .collect();
        broken(
            &with(v.clone(), "end_to_end", Value::Arr(seventeen)),
            "1 to 16 metrics",
        );

        // per_layer
        let mut short = v.get("per_layer").unwrap().as_arr().unwrap().to_vec();
        short.pop();
        broken(
            &with(v.clone(), "per_layer", Value::Arr(short)),
            "printed by the binary but not listed",
        );
        broken(
            &with_entry(v.clone(), "per_layer", 3, "name", str("storage.made_up")),
            "the binary does not print it",
        );
        let mut bounded = v.get("per_layer").unwrap().as_arr().unwrap().to_vec();
        if let Value::Obj(members) = &mut bounded[0] {
            members.push(("bound".to_string(), num(0.1)));
        }
        broken(
            &with(v.clone(), "per_layer", Value::Arr(bounded)),
            "unknown key \"bound\"",
        );
        let many: Vec<Value> = (0..129)
            .map(|i| {
                obj(vec![
                    ("name", str(&format!("x.m{i}"))),
                    ("unit", str("us")),
                    ("better", str("lower")),
                ])
            })
            .collect();
        broken(
            &with(v.clone(), "per_layer", Value::Arr(many)),
            "1 to 128 metrics",
        );
    }

    #[test]
    fn bounds_are_read_back() {
        let bounds = bounds(&valid().render()).unwrap();
        assert_eq!(bounds.len(), metrics::END_TO_END.len());
        assert!(bounds.iter().all(|(_, b)| *b == 0.1));
    }
}
