//! `xlac-obs-report` — aggregates `xlac-obs` / `xlac-bench` JSON lines.
//!
//! Two modes:
//!
//! * **Profile** (default): read one or more JSON-lines files (as written
//!   by [`xlac_obs::export_json_lines`] and the `BENCH_*.json` reports)
//!   and print a per-phase profile table. The phase of a metric is the
//!   first dotted segment of its name (`sim`, `explore`, `accel`,
//!   `analysis`); bench-result lines group under the part of their name
//!   before `/`.
//!
//! * **Gate** (`--gate BASELINE INSTRUMENTED`): compare every
//!   bench-format line present in both files by `min_ns` (the
//!   noise-robust statistic) and exit non-zero when the instrumented
//!   build is more than `--tolerance` (default 0.05 = 5%) slower on any
//!   of them. This is the CI overhead gate for the `obs` feature.
//!
//! ```text
//! xlac-obs-report FILE...
//! xlac-obs-report --gate BASELINE INSTRUMENTED [--tolerance FRAC]
//! ```
//!
//! The parser is hand-rolled (the workspace is dependency-free) and
//! accepts the flat objects both emitters produce: string, number,
//! `null` and arrays of numbers.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// A value in one flat JSON-line object.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Str(String),
    Arr(Vec<f64>),
    Null,
}

impl Value {
    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// One parsed line: field name → value, plus insertion order not needed.
type Object = BTreeMap<String, Value>;

/// Scans a JSON string literal starting at `bytes[i]` (the opening
/// quote), returning the unescaped contents and the index past the
/// closing quote.
fn scan_string(bytes: &[u8], mut i: usize) -> Option<(String, usize)> {
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    let mut out = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some((out, i + 1)),
            b'\\' => {
                let esc = *bytes.get(i + 1)?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    _ => return None, // \uXXXX etc. never appear in our output
                });
                i += 2;
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    None
}

/// Scans a JSON number starting at `bytes[i]`.
fn scan_number(bytes: &[u8], i: usize) -> Option<(f64, usize)> {
    let start = i;
    let mut end = i;
    while end < bytes.len()
        && matches!(bytes[end], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        end += 1;
    }
    let text = std::str::from_utf8(&bytes[start..end]).ok()?;
    text.parse().ok().map(|v| (v, end))
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// Parses one flat JSON object line. Returns `None` for anything that is
/// not an object of string/number/null/number-array fields.
fn parse_object(line: &str) -> Option<Object> {
    let bytes = line.trim().as_bytes();
    let mut i = skip_ws(bytes, 0);
    if bytes.get(i) != Some(&b'{') {
        return None;
    }
    i = skip_ws(bytes, i + 1);
    let mut obj = Object::new();
    if bytes.get(i) == Some(&b'}') {
        return Some(obj);
    }
    loop {
        let (key, next) = scan_string(bytes, i)?;
        i = skip_ws(bytes, next);
        if bytes.get(i) != Some(&b':') {
            return None;
        }
        i = skip_ws(bytes, i + 1);
        let value;
        match bytes.get(i)? {
            b'"' => {
                let (s, next) = scan_string(bytes, i)?;
                value = Value::Str(s);
                i = next;
            }
            b'n' => {
                if !bytes[i..].starts_with(b"null") {
                    return None;
                }
                value = Value::Null;
                i += 4;
            }
            b'[' => {
                i = skip_ws(bytes, i + 1);
                let mut arr = Vec::new();
                if bytes.get(i) == Some(&b']') {
                    i += 1;
                } else {
                    loop {
                        let (v, next) = scan_number(bytes, i)?;
                        arr.push(v);
                        i = skip_ws(bytes, next);
                        match bytes.get(i)? {
                            b',' => i = skip_ws(bytes, i + 1),
                            b']' => {
                                i += 1;
                                break;
                            }
                            _ => return None,
                        }
                    }
                }
                value = Value::Arr(arr);
            }
            _ => {
                let (v, next) = scan_number(bytes, i)?;
                value = Value::Num(v);
                i = next;
            }
        }
        obj.insert(key, value);
        i = skip_ws(bytes, i);
        match bytes.get(i)? {
            b',' => i = skip_ws(bytes, i + 1),
            b'}' => return Some(obj),
            _ => return None,
        }
    }
}

/// The metric kind encoded in a line's `name` field.
enum Kind {
    Counter(String),
    Gauge(String),
    Hist(String),
    Span(String),
    Bench(String),
}

fn classify(obj: &Object) -> Option<Kind> {
    let Value::Str(name) = obj.get("name")? else { return None };
    if let Some(rest) = name.strip_prefix("counter/") {
        Some(Kind::Counter(rest.to_string()))
    } else if let Some(rest) = name.strip_prefix("gauge/") {
        Some(Kind::Gauge(rest.to_string()))
    } else if let Some(rest) = name.strip_prefix("hist/") {
        Some(Kind::Hist(rest.to_string()))
    } else if let Some(rest) = name.strip_prefix("span/") {
        Some(Kind::Span(rest.to_string()))
    } else if obj.contains_key("samples") && obj.contains_key("min_ns") {
        Some(Kind::Bench(name.clone()))
    } else {
        None
    }
}

/// The phase (profile-table group) of a metric name.
fn phase_of(name: &str) -> String {
    let head = name.split('/').next().unwrap_or(name);
    head.split('.').next().unwrap_or(head).to_string()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn read_lines(path: &str) -> Result<Vec<Object>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text.lines().filter(|l| l.trim_start().starts_with('{')).filter_map(parse_object).collect())
}

fn profile(paths: &[String]) -> Result<(), String> {
    let mut rows: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut total = 0usize;
    for path in paths {
        for obj in read_lines(path)? {
            let Some(kind) = classify(&obj) else { continue };
            total += 1;
            let (phase, row) = match kind {
                Kind::Counter(name) => {
                    let v = obj.get("value").and_then(Value::as_num).unwrap_or(0.0);
                    (phase_of(&name), format!("counter  {name:<44} {v:>14.0}"))
                }
                Kind::Gauge(name) => {
                    let v = match obj.get("value") {
                        Some(Value::Num(v)) => format!("{v:>14.6}"),
                        _ => format!("{:>14}", "null"),
                    };
                    (phase_of(&name), format!("gauge    {name:<44} {v}"))
                }
                Kind::Hist(name) => {
                    let get = |k: &str| obj.get(k).and_then(Value::as_num).unwrap_or(0.0);
                    (
                        phase_of(&name),
                        format!(
                            "hist     {name:<44} n={:<10.0} sum={:<12.0} min={:<8.0} max={:.0}",
                            get("count"),
                            get("sum"),
                            get("min"),
                            get("max")
                        ),
                    )
                }
                Kind::Span(name) => {
                    let get = |k: &str| obj.get(k).and_then(Value::as_num).unwrap_or(0.0);
                    let samples = get("samples");
                    let total_ns = get("mean_ns") * samples;
                    (
                        phase_of(&name),
                        format!(
                            "span     {name:<44} n={samples:<10.0} total={:<10} mean={:<10} max={}",
                            fmt_ns(total_ns),
                            fmt_ns(get("mean_ns")),
                            fmt_ns(get("max_ns"))
                        ),
                    )
                }
                Kind::Bench(name) => {
                    let get = |k: &str| obj.get(k).and_then(Value::as_num).unwrap_or(0.0);
                    (
                        phase_of(&name),
                        format!(
                            "bench    {name:<44} median={:<10} min={}",
                            fmt_ns(get("median_ns")),
                            fmt_ns(get("min_ns"))
                        ),
                    )
                }
            };
            rows.entry(phase).or_default().push(row);
        }
    }
    if total == 0 {
        return Err(format!("no metric lines found in {}", paths.join(", ")));
    }
    for (phase, lines) in &rows {
        println!("== {phase} ==");
        for line in lines {
            println!("  {line}");
        }
    }
    println!("xlac-obs-report: {total} metric(s) across {} phase(s)", rows.len());
    Ok(())
}

/// Collects `name → min_ns` for every bench-format line in a file.
fn bench_mins(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut mins = BTreeMap::new();
    for obj in read_lines(path)? {
        if let Some(Kind::Bench(name)) = classify(&obj) {
            if let Some(min_ns) = obj.get("min_ns").and_then(Value::as_num) {
                // A bench re-run keeps the better (smaller) observation.
                let slot = mins.entry(name).or_insert(f64::INFINITY);
                *slot = slot.min(min_ns);
            }
        }
    }
    Ok(mins)
}

fn gate(baseline: &str, instrumented: &str, tolerance: f64) -> Result<bool, String> {
    let base = bench_mins(baseline)?;
    let inst = bench_mins(instrumented)?;
    let mut worst: Option<(String, f64)> = None;
    let mut compared = 0usize;
    for (name, &b) in &base {
        let Some(&i) = inst.get(name) else { continue };
        if b <= 0.0 {
            continue;
        }
        compared += 1;
        let overhead = i / b - 1.0;
        println!(
            "gate: {name:<52} base={:<10} inst={:<10} {:+.1}%",
            fmt_ns(b),
            fmt_ns(i),
            overhead * 100.0
        );
        if worst.as_ref().is_none_or(|(_, w)| overhead > *w) {
            worst = Some((name.clone(), overhead));
        }
    }
    if compared == 0 {
        return Err(format!("no bench names shared between {baseline} and {instrumented}"));
    }
    let (name, overhead) = worst.expect("compared > 0 implies a worst entry");
    let ok = overhead <= tolerance;
    println!(
        "obs overhead gate: worst {:+.1}% ({name}) over {compared} bench(es), tolerance {:.1}% — {}",
        overhead * 100.0,
        tolerance * 100.0,
        if ok { "OK" } else { "FAIL" }
    );
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--gate") {
        let mut tolerance = 0.05;
        let mut files = Vec::new();
        let mut rest = args[1..].iter();
        while let Some(arg) = rest.next() {
            if arg == "--tolerance" {
                tolerance = rest
                    .next()
                    .ok_or("--tolerance needs a fraction")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            } else {
                files.push(arg.clone());
            }
        }
        let [baseline, instrumented] = files.as_slice() else {
            return Err("usage: xlac-obs-report --gate BASELINE INSTRUMENTED [--tolerance FRAC]"
                .into());
        };
        gate(baseline, instrumented, tolerance)
    } else if args.is_empty() {
        Err("usage: xlac-obs-report FILE... | --gate BASELINE INSTRUMENTED".into())
    } else {
        profile(&args).map(|()| true)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xlac-obs-report: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_and_obs_lines() {
        let bench = r#"{"name":"g/f","samples":12,"iters_per_sample":3,"median_ns":101.5,"mean_ns":102.0,"min_ns":99.0,"max_ns":110.0}"#;
        let obj = parse_object(bench).unwrap();
        assert!(matches!(classify(&obj), Some(Kind::Bench(n)) if n == "g/f"));
        assert_eq!(obj.get("min_ns").and_then(Value::as_num), Some(99.0));

        let counter = r#"{"name":"counter/sim.chunks","value":16}"#;
        let obj = parse_object(counter).unwrap();
        assert!(matches!(classify(&obj), Some(Kind::Counter(n)) if n == "sim.chunks"));

        let hist = r#"{"name":"hist/sim.x","count":2,"sum":3,"min":1,"max":2,"buckets":[0,1,1]}"#;
        let obj = parse_object(hist).unwrap();
        assert_eq!(obj.get("buckets"), Some(&Value::Arr(vec![0.0, 1.0, 1.0])));

        let with_context = r#"{"name":"g/f","samples":12,"iters_per_sample":3,"median_ns":101.5,"mean_ns":102.0,"min_ns":99.0,"max_ns":110.0,"nproc":2,"threads":2,"profile":"release"}"#;
        let obj = parse_object(with_context).unwrap();
        assert!(matches!(classify(&obj), Some(Kind::Bench(n)) if n == "g/f"));
        assert_eq!(obj.get("min_ns").and_then(Value::as_num), Some(99.0));
        assert_eq!(obj.get("threads").and_then(Value::as_num), Some(2.0));

        let gauge = r#"{"name":"gauge/analysis.rate","value":null}"#;
        let obj = parse_object(gauge).unwrap();
        assert_eq!(obj.get("value"), Some(&Value::Null));
    }

    #[test]
    fn rejects_non_objects() {
        assert!(parse_object("not json").is_none());
        assert!(parse_object("[1,2]").is_none());
        assert!(parse_object(r#"{"name":"x""#).is_none());
        assert!(parse_object("{}").map(|o| o.is_empty()).unwrap_or(false));
    }

    #[test]
    fn phases_group_by_first_segment() {
        assert_eq!(phase_of("sim.sweep.chunk"), "sim");
        assert_eq!(phase_of("bitslice_mul8x8/scalar_1thread"), "bitslice_mul8x8");
        assert_eq!(phase_of("plain"), "plain");
    }

    #[test]
    fn string_escapes_round_trip() {
        let (s, _) = scan_string(br#""a\"b\\c""#, 0).unwrap();
        assert_eq!(s, "a\"b\\c");
    }
}
