//! The benchmark's own tests, all at tiny scale (`--tiny`): a smoke run
//! of every workload, the printed metrics against `BENCHMARK.json`, and
//! corrupted results counted as failures.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["batch-cycle", "refine-chain", "serve-star"];

/// A parsed JSON value (only what the result line and `BENCHMARK.json`
/// use).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

fn parse(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos);
    skip_ws(bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing input in {text}");
    v
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b[*pos] {
        b'{' => {
            *pos += 1;
            let mut m = BTreeMap::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b'}' {
                    *pos += 1;
                    return Json::Obj(m);
                }
                let Json::Str(k) = value(b, pos) else {
                    panic!("object key is not a string")
                };
                skip_ws(b, pos);
                assert_eq!(b[*pos], b':');
                *pos += 1;
                m.insert(k, value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut v = Vec::new();
            loop {
                skip_ws(b, pos);
                if b[*pos] == b']' {
                    *pos += 1;
                    return Json::Arr(v);
                }
                v.push(value(b, pos));
                skip_ws(b, pos);
                if b[*pos] == b',' {
                    *pos += 1;
                }
            }
        }
        b'"' => {
            *pos += 1;
            let start = *pos;
            while b[*pos] != b'"' {
                assert_ne!(b[*pos], b'\\', "escapes are not used");
                *pos += 1;
            }
            *pos += 1;
            Json::Str(String::from_utf8(b[start..*pos - 1].to_vec()).expect("utf-8"))
        }
        b't' => {
            *pos += 4;
            Json::Bool(true)
        }
        b'f' => {
            *pos += 5;
            Json::Bool(false)
        }
        b'n' => {
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            Json::Num(
                std::str::from_utf8(&b[start..*pos])
                    .expect("ascii")
                    .parse()
                    .expect("number"),
            )
        }
    }
}

/// Run the benchmark binary at tiny scale; returns the parsed last line.
fn run(workload: &str, trace: bool, extra: &[&str]) -> Json {
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{workload}-{}-{}",
        u8::from(trace),
        extra.join("")
    ));
    std::fs::create_dir_all(&scratch).expect("test scratch directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(&scratch)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    parse(stdout.lines().last().expect("a result line"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
    let Json::Arr(items) = spec.get(section) else {
        panic!("{section} is not a list")
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

fn assert_prints(result: &Json, section: &str) {
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let want = declared(section);
    for (name, unit) in &want {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not printed"));
        assert_eq!(m.get("unit").str(), unit, "{name}");
        assert!(m.get("value").num().is_finite(), "{name}");
    }
    assert_eq!(
        metrics.len(),
        want.len(),
        "only declared metrics are printed"
    );
}

#[test]
fn every_workload_runs_correctly_and_prints_every_declared_metric() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let r = run(workload, trace, &[]);
            assert_eq!(r.get("correct"), &Json::Bool(true), "{workload}");
            assert_eq!(r.get("failed").num(), 0.0, "{workload}");
            assert!(r.get("attempted").num() >= 1.0, "{workload}");
            assert_prints(&r, if trace { "per_layer" } else { "end_to_end" });
            if !trace {
                for (name, _) in declared("end_to_end") {
                    let v = r.get("metrics").get(&name).get("value").num();
                    assert!(v > 0.0, "{workload}: end-to-end {name} reads {v}");
                }
            }
        }
    }
}

#[test]
fn a_dropped_row_is_a_failure() {
    let r = run("batch-cycle", false, &["--corrupt", "drop-row"]);
    assert_eq!(r.get("failed").num(), 1.0);
    assert_eq!(r.get("correct"), &Json::Bool(false));
}

#[test]
fn an_altered_response_byte_is_a_failure() {
    for workload in ["refine-chain", "serve-star"] {
        let r = run(workload, false, &["--corrupt", "flip-byte"]);
        assert_eq!(r.get("failed").num(), 1.0, "{workload}");
        assert_eq!(r.get("correct"), &Json::Bool(false), "{workload}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
