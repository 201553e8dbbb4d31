//! The experiment harness: regenerates every figure and quantitative claim
//! of the BigDAWG demo paper.
//!
//! ```text
//! experiments            # run everything at default scale
//! experiments fig1 e3    # run a subset
//! experiments --quick    # reduced scale (CI-friendly)
//! ```

use bigdawg_bench::experiments::*;
use bigdawg_bench::setup::{demo_polystore, DemoConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let want = |id: &str| selected.is_empty() || selected.contains(&id);

    let config = if quick {
        DemoConfig::tiny()
    } else {
        DemoConfig::default()
    };
    let scale = if quick { 1 } else { 10 };

    println!("BigDAWG polystore reproduction — experiment harness");
    println!(
        "(scale: {}; see DESIGN.md for the experiment index and EXPERIMENTS.md for analysis)",
        if quick { "quick" } else { "full" }
    );

    let demo = demo_polystore(config.clone()).expect("demo federation builds");

    if want("fig1") {
        println!("{}", fig::fig1(&demo));
    }
    if want("fig2") {
        let (table, top) = fig::fig2(&demo, 3);
        println!("{table}");
        if let Some(best) = top.first() {
            println!("winning view rendered (target vs reference):\n{best}");
        }
    }
    if want("e1") {
        let run = || onesize::run(4_000 * scale, 2_000 * scale).expect("E1 runs");
        let results = run();
        println!("{}", onesize::table(&results));
        if quick {
            // bound: the specialized engine wins each of its three classes
            // by ≥ 5×. Each ratio is one short timed shot per engine, and
            // one preemption can halve it: judged on the best of three runs
            let runs = [results, run(), run()];
            for class in ["streaming", "waveform", "text"] {
                let of = |run: &Vec<onesize::WorkloadResult>| {
                    let result = run.iter().find(|r| r.name.starts_with(class));
                    result.expect("E1 runs every class").speedup()
                };
                let best = runs.iter().map(of).fold(f64::MIN, f64::max);
                assert!(
                    best > 5.0,
                    "E1: {class} speedup {best:.1}× below the 5× floor"
                );
            }
        }
    }
    if want("e2") {
        let r = tupleware_exp::run(200_000 * scale);
        println!("{}", tupleware_exp::table(&r));
    }
    if want("e3") {
        let r = streaming::run(20_000 * scale).expect("E3 runs");
        println!("{}", streaming::table(&r));
    }
    if want("e4") {
        let run = || cast_exp::run(&demo).expect("E4 runs");
        let r = run();
        println!("{}", cast_exp::table(&r));
        if quick {
            // bound: the binary transport beats the CSV file on the
            // waveform CAST. Best of three per transport: one shot of a
            // sub-millisecond CAST loses to a scheduler hiccup
            let waves = [r, run(), run()].map(|mut objects| objects.remove(0));
            let binary = waves.iter().map(|w| w.binary.total()).min();
            let file = waves.iter().map(|w| w.file.total()).min();
            assert!(
                binary < file,
                "E4: binary {binary:?} must beat CSV {file:?}"
            );
        }
    }
    if want("e5") {
        let r = seedb_exp::run(&demo, 3).expect("E5 runs");
        println!("{}", seedb_exp::table(&r));
    }
    if want("e6") {
        let r = searchlight_exp::run(100_000 * scale).expect("E6 runs");
        println!("{}", searchlight_exp::table(&r));
    }
    if want("e7") {
        let r = scalar_exp::run(&demo).expect("E7 runs");
        println!("{}", scalar_exp::table(&r));
    }
    if want("e8") {
        let r = migration::run(20_000 * scale).expect("E8 runs");
        println!("{}", migration::table(&r));
    }
    if want("e9") {
        let r = anomaly_exp::run(50_000 * scale as u64).expect("E9 runs");
        println!("{}", anomaly_exp::table(&r));
    }
    if want("e10") {
        let run = || coupling::run(if quick { 96 } else { 256 }).expect("E10 runs");
        let r = run();
        println!("{}", coupling::table(&r));
        if quick {
            // bounds: the tight path skips the conversion, so its matmul
            // is under 1.5× the loose one (kernel noise) and its sum under
            // 3×. Best of three per timing, as above
            let runs = [r, run(), run()];
            let best = |timing: fn(&coupling::CouplingResult) -> std::time::Duration| {
                runs.iter().map(timing).min().expect("three runs")
            };
            let (tight, loose) = (best(|r| r.tight_matmul), best(|r| r.loose_matmul));
            assert!(
                tight < loose + loose / 2,
                "E10: tight matmul {tight:?} vs loose {loose:?}"
            );
            assert!(
                best(|r| r.tight_sum) <= best(|r| r.loose_sum) * 3,
                "E10: tight sum over 3× the loose one"
            );
        }
    }
    if want("e11") {
        let wire = std::time::Duration::from_millis(if quick { 2 } else { 5 });
        let r = federation::run(&config, wire).expect("E11 runs");
        println!("{}", federation::table(&r));
    }
    if want("e12") {
        let wire = std::time::Duration::from_millis(if quick { 2 } else { 5 });
        let r = migration_convergence::run(wire, if quick { 5 } else { 8 }).expect("E12 runs");
        println!("{}", migration_convergence::table(&r));
    }
    if want("e13") {
        let r = interchange::run(if quick { 20_000 } else { 100_000 }).expect("E13 runs");
        println!("{}", interchange::table(&r));
    }
    if want("e14") {
        let seed = bigdawg_core::shims::test_seed(0xE14);
        let r = availability::run(seed, if quick { 150 } else { 500 }).expect("E14 runs");
        println!("{}", availability::table(&r));
    }
    if want("e15") {
        // always the default-scale federation: `tiny()`'s ~200 µs query
        // inflates the *relative* cost of the fixed per-query span count
        let cfg = DemoConfig::default();
        let r = tracing_overhead::run(&cfg, if quick { 60 } else { 300 }).expect("E15 runs");
        println!("{}", tracing_overhead::table(&r));
        if quick {
            assert!(
                r.overhead() < 0.05,
                "E15: tracing overhead {:.2}% exceeds the 5% budget",
                r.overhead() * 100.0
            );
        }
    }
    if want("e16") {
        let wire = std::time::Duration::from_millis(if quick { 2 } else { 5 });
        let (samples, distinct) = if quick { (120, 8) } else { (400, 16) };
        let seed = bigdawg_core::shims::test_seed(0xE16);
        let r = result_cache::run(wire, samples, distinct, seed).expect("E16 runs");
        println!("{}", result_cache::table(&r));
        if quick {
            assert!(
                r.speedup() >= 5.0,
                "E16: cache speedup {:.1}× below the 5× floor",
                r.speedup()
            );
        }
    }
    if want("e17") {
        let wire = std::time::Duration::from_millis(if quick { 2 } else { 5 });
        let r = overload::run(wire, if quick { 10 } else { 40 }).expect("E17 runs");
        println!("{}", overload::table(&r));
        if quick {
            let total = r.clients * r.per_client;
            for m in [&r.unprotected, &r.protected] {
                assert_eq!(m.total(), total, "E17 {}: query went unaccounted", m.label);
                assert_eq!(m.other_errors, 0, "E17 {}: unstructured failure", m.label);
            }
            assert!(
                r.protected.p99_served <= r.unloaded_p99 * 2,
                "E17: protected served p99 {:?} exceeds 2x unloaded p99 {:?}",
                r.protected.p99_served,
                r.unloaded_p99
            );
        }
    }
    if want("e18") {
        let wire = std::time::Duration::from_millis(if quick { 2 } else { 5 });
        let r = pushdown::run(if quick { 10_000 } else { 50_000 }, wire).expect("E18 runs");
        println!("{}", pushdown::table(&r));
        if quick {
            assert!(
                r.byte_reduction() >= 2.0,
                "E18: byte reduction {:.1}× below the 2× floor",
                r.byte_reduction()
            );
            assert!(
                r.opt_wall <= r.unopt_wall,
                "E18: optimized plan slower end-to-end ({:?} vs {:?})",
                r.opt_wall,
                r.unopt_wall
            );
        }
    }
}
