//! polybench — the federated-query benchmark of this repository.
//!
//! Four workloads drive the polystore through its public façade with
//! tracing off and report the end-to-end metrics; a separate traced run
//! replays sampled queries step by step through each layer's public
//! functions under harness-side spans and reports the per-layer table.
//! `README.md` beside this file is the manual: metric glossary, why each
//! workload exists, how to run, trace and diff.
//!
//! ```text
//! polybench --workload <name> --seed <n> --seconds <s> --trace <0|1>   (what BENCHMARK.json runs)
//! polybench run   (--workload <name> | --all) [--seed n] [--seconds s] [--out file]
//! polybench trace (--workload <name> | --all) [--seed n] [--seconds s] [--out file]
//! polybench check
//! polybench diff <a.json> <b.json>
//! ```

mod federations;
mod json;
mod load;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use federations::Scale;
use json::Json;
use load::Measured;
use report::RunResult;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Workload;

/// Seconds of untimed load before the window: monitor histograms, cache
/// fill, lazy initialisation.
const WARM_UP: Duration = Duration::from_secs(3);
/// Set-ups per run; `setup_s` is their median.
const SET_UPS: usize = 3;
/// Writes in the burst that measures `write_p50_ms` on a read-only workload.
const WRITE_BURST: usize = 1000;
/// Directory (under the working directory) for result and span files.
const OUT_DIR: &str = "polybench-out";

struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => parsed.all = true,
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number of seconds")?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("name one workload with --workload, or pass --all".into());
    }
    Ok(parsed)
}

/// First line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a result was measured.
fn env_stamp(scale: &Scale) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("clients", Json::Num(workloads::clients() as f64)),
        (
            "git_rev",
            Json::Str(command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("wire_ms", Json::Num(scale.wire.as_secs_f64() * 1e3)),
        ("warm_up_s", Json::Num(WARM_UP.as_secs_f64())),
        ("set_ups", Json::Num(SET_UPS as f64)),
        ("scan_rows", Json::Num(scale.scan_rows as f64)),
        ("join_rows", Json::Num(scale.join_rows as f64)),
        ("patients", Json::Num(scale.patients as f64)),
        ("waveform_samples", Json::Num(scale.waveform_samples as f64)),
    ])
}

/// Default result file of a `run` or `trace`: `run-<what>.json` or
/// `layers-<what>.json` — `trace-<workload>.json` is the span file.
fn result_path(mode: &str, what: &str) -> String {
    let prefix = if mode == "trace" { "layers" } else { mode };
    format!("{OUT_DIR}/{prefix}-{what}.json")
}

/// The end-to-end run of one workload: set up (timed), warm up, then the
/// timed closed-loop window with every answer checked.
fn run_workload(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    warm_up: Duration,
) -> Result<RunResult, String> {
    let (bench, set_ups) = load::timed_set_up(workload, scale, seed, SET_UPS)?;
    let pool = bench.reads.len();
    // the warm-up runs the same loop on a different sequence
    load::run_window(&bench, &workload.sequences(!seed, pool), warm_up);
    let cache_before = bench.bd.cache_stats();
    let window = load::run_window(
        &bench,
        &workload.sequences(seed, pool),
        Duration::from_secs_f64(seconds),
    );
    let cache_after = bench.bd.cache_stats();
    let mut m = load::window_metrics(&window);
    if workload.whole_passes() {
        // whole passes make the pooled bytes per read exact; a round's
        // figure would only show where its boundary cut a pass
        m.wire_bytes_per_query.rounds.clear();
        // read-only window: the write path is measured by itself, after it
        let burst = bench.write_burst(WRITE_BURST);
        m.attempted += WRITE_BURST;
        m.failed += WRITE_BURST - burst.len();
        m.writes += WRITE_BURST;
        m.write_p50_ms = load::p50_in_rounds(&burst);
    }
    let landed = bench.check_writes_landed();
    let peak_rss = Measured {
        value: stats::peak_rss_mb().unwrap_or(f64::NAN),
        rounds: Vec::new(),
    };
    let metrics = vec![
        report::end_to_end(
            "setup_s",
            Measured {
                value: stats::median(&set_ups).unwrap_or(f64::NAN),
                rounds: set_ups,
            },
        ),
        report::end_to_end("query_p50_ms", m.query_p50_ms),
        report::end_to_end("query_p95_ms", m.query_p95_ms),
        report::end_to_end("write_p50_ms", m.write_p50_ms),
        report::end_to_end("throughput_qps", m.throughput_qps),
        report::end_to_end("cpu_ms_per_query", m.cpu_ms_per_query),
        report::end_to_end("wire_bytes_per_query", m.wire_bytes_per_query),
        report::end_to_end("peak_rss_mb", peak_rss),
    ];

    let mut unstable = Vec::new();
    let mut ops: Vec<(String, f64)> = [
        ("reads", m.reads as f64),
        ("writes", m.writes as f64),
        ("window_s", m.wall_s),
        ("pool", pool as f64),
        ("p95_samples_beyond", (m.reads as f64 * 0.05).floor()),
    ]
    .map(|(k, v)| (k.to_string(), v))
    .into();
    if let (Some(before), Some(after)) = (cache_before, cache_after) {
        let hit_ratio = load::hit_ratio(&before, &after).unwrap_or(f64::NAN);
        ops.push(("cache_hit_ratio".to_string(), hit_ratio));
        // outside this band p50 or p95 would straddle the hit and miss modes
        if !(0.60..=0.90).contains(&hit_ratio) {
            unstable.push(format!("cache hit ratio {hit_ratio:.3} left 0.60–0.90"));
        }
    }
    if let Err(e) = &landed {
        eprintln!("polybench: {e}");
    }
    let mut result = RunResult {
        workload: workload.name(),
        mode: "run",
        seed,
        seconds,
        correct: m.failed == 0 && landed.is_ok(),
        attempted: m.attempted,
        failed: m.failed,
        ops,
        metrics,
        unstable,
    };
    result.flag_wide_spreads();
    Ok(result)
}

/// `run` / `trace` for one workload, in this process: print the table for
/// people, write the result file, and end with the driver's line.
fn one_workload(args: &Args, workload: Workload) -> Result<bool, String> {
    let scale = Scale::full();
    let mode = if args.trace { "trace" } else { "run" };
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| result_path(mode, workload.name()));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let result = if args.trace {
        let spans_out =
            std::path::Path::new(&out).with_file_name(format!("trace-{}.json", workload.name()));
        replay::trace_workload(workload, &scale, args.seed, args.seconds, Some(&spans_out))?
    } else {
        run_workload(workload, &scale, args.seed, args.seconds, WARM_UP)?
    };
    eprint!("{}", result.render_table());
    let file = report::result_file(env_stamp(&scale), vec![result.to_json()]);
    std::fs::write(&out, file.render_pretty()).map_err(|e| format!("{out}: {e}"))?;
    println!("{}", result.driver_line());
    Ok(result.correct)
}

/// `--all`: one child process per workload, so that `peak_rss_mb` is the
/// workload's own; their result files are merged into one.
fn all_workloads(args: &Args) -> Result<bool, String> {
    let mode = if args.trace { "trace" } else { "run" };
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let mut runs = Vec::new();
    let mut env = Json::Null;
    let mut all_correct = true;
    for workload in Workload::ALL {
        let part = result_path(mode, workload.name());
        let status = std::process::Command::new(&exe)
            .args([mode, "--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--out", &part])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(&part).map_err(|e| format!("{part}: {e}"))?;
        let file = json::parse(&text)?;
        env = file.get("env").cloned().unwrap_or(Json::Null);
        runs.extend(
            file.get("workloads")
                .map_or(&[][..], Json::as_arr)
                .iter()
                .cloned(),
        );
    }
    let out = args.out.clone().unwrap_or_else(|| result_path(mode, "all"));
    std::fs::write(&out, report::result_file(env, runs).render_pretty())
        .map_err(|e| format!("{out}: {e}"))?;
    eprintln!("polybench: wrote {out}");
    Ok(all_correct)
}

/// `check`: every workload at tiny scale with every correctness check on —
/// oracle pass, checked answers, staleness, landed writes, and the traced
/// replay's answers against `execute`'s.
fn check() -> Result<bool, String> {
    let scale = Scale::tiny();
    let mut ok = true;
    for workload in Workload::ALL {
        let run = run_workload(workload, &scale, 7, 0.1, Duration::from_millis(20))?;
        let trace = replay::trace_workload(workload, &scale, 7, 0.1, None)?;
        for r in [&run, &trace] {
            println!(
                "check {:<15} {:<5} {:>6} operations, {} failed: {}",
                r.workload,
                r.mode,
                r.attempted,
                r.failed,
                if r.correct { "ok" } else { "INCORRECT" }
            );
            ok &= r.correct && r.attempted > 0;
        }
    }
    Ok(ok)
}

fn diff(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("diff takes two result files".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, regressed) = report::diff(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(!regressed)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some("check") => return check(),
        Some("diff") => return diff(&args[1..]),
        Some(c @ ("run" | "trace")) => (c, &args[1..]),
        // the driver's form: flags only, `--trace` picks the mode
        _ => ("", args),
    };
    let mut parsed = parse_args(rest)?;
    parsed.trace |= command == "trace";
    match parsed.workload {
        Some(workload) => one_workload(&parsed, workload),
        None => all_workloads(&parsed),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("polybench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_in_the_drivers_form() {
        let a = parse_args(&strings(&[
            "--workload",
            "join_ship",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::JoinShip));
        assert_eq!((a.seed, a.seconds, a.trace, a.all), (9, 10.0, true, false));
        assert!(parse_args(&strings(&["--all"])).unwrap().all);
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "join_ship", "--all"],
            &["--seed", "1"],
            &["--workload", "join_ship", "--seconds", "0"],
            &["--workload", "join_ship", "--trace", "2"],
            &["--workload"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` and the harness must name the same workloads and
    /// metrics with the same units, directions and bounds.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), Workload::ALL.map(|w| w.name()));
        assert_eq!(
            names("end_to_end"),
            report::END_TO_END
                .iter()
                .map(|d| d.name)
                .collect::<Vec<_>>()
        );
        for (m, def) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .zip(&report::END_TO_END)
        {
            assert_eq!(
                m.get("unit").unwrap().as_str(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                m.get("bound").unwrap().as_f64(),
                Some(def.bound),
                "{}",
                def.name
            );
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(
                m.get("better").unwrap().as_str(),
                Some(better),
                "{}",
                def.name
            );
        }
        let layers: Vec<(String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let harness: Vec<(String, String)> = replay::PER_LAYER
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string()))
            .collect();
        assert_eq!(layers, harness);
        assert_eq!(
            doc.get("paths").unwrap().as_arr()[0].as_str(),
            Some("crates/bench/src/bin/polybench")
        );
    }

    /// The satellite `polybench check`, as tier-1 sees it.
    #[test]
    fn check_passes_on_every_workload() {
        assert_eq!(check(), Ok(true));
    }
}
