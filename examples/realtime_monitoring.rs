//! The Real-Time Monitoring interface (§1.1, §2.3, §3): live waveforms
//! stream into S-Store, window triggers compare against reference rhythms,
//! alerts fire transactionally, and aged data moves to the array engine for
//! historical FFT analysis.
//!
//! ```text
//! cargo run --release --example realtime_monitoring
//! ```

use bigdawg::analytics::fft::dominant_frequency;
use bigdawg::analytics::AnomalyDetector;
use bigdawg::common::{DataType, Histogram, Schema, Value};
use bigdawg::mimic::{plant_anomalies, WaveformGen};
use bigdawg::stream::ingest::Frame;
use bigdawg::stream::{Engine, IngestQueue, WindowSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 2026;
    let patient = 7u64;
    let samples = 30_000u64; // 4 minutes at 125 Hz
    let events = plant_anomalies(seed, patient, samples, 3, 500, 4_000);
    println!("planted arrhythmias at sample ranges:");
    for e in &events {
        println!("  [{}, {}]", e.start, e.end);
    }
    let wave = WaveformGen::new(seed, patient, 125.0, events);

    // Reference rhythm learned from a clean generator.
    let clean = WaveformGen::new(seed, patient, 125.0, vec![]);
    let mut detector = AnomalyDetector::new(8.0);
    let refs: Vec<Vec<f64>> = (0..8).map(|k| clean.window(k * 125, 125)).collect();
    let views: Vec<&[f64]> = refs.iter().map(Vec::as_slice).collect();
    detector.learn_reference(patient, &views)?;
    let detector = std::sync::Arc::new(detector);

    // S-Store: stream + tumbling 1 s window + comparison trigger.
    let mut engine = Engine::new(true); // command-logged for recovery
    let schema = Schema::from_pairs(&[("ts", DataType::Timestamp), ("hr", DataType::Float)]);
    engine.create_stream("vitals", schema.clone(), "ts", 2_000)?;
    engine.create_window("vitals", "w", "hr", WindowSpec::tumbling(125))?;
    engine.create_table(
        "alerts",
        Schema::from_pairs(&[("ts", DataType::Timestamp), ("score", DataType::Float)]),
    )?;
    let det = std::sync::Arc::clone(&detector);
    engine.register_proc(
        "compare_reference",
        Box::new(move |ctx, _| {
            let snap = ctx.stream_snapshot("vitals")?;
            let window: Vec<f64> = snap
                .rows()
                .iter()
                .rev()
                .take(125)
                .map(|r| r[1].as_f64())
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .rev()
                .collect();
            if window.len() == 125 {
                let score = det.score(7, &window)?;
                if score > det.threshold {
                    let ts = ctx.event_ts;
                    ctx.insert("alerts", vec![Value::Timestamp(ts), Value::Float(score)])?;
                }
            }
            Ok(())
        }),
    );
    engine.on_window("vitals", "w", "compare_reference")?;

    // Bedside device feeds frames through the ingestion queue. Batch drain
    // latencies go into the monitor's histogram type so the tail is visible
    // the way the cost model sees it.
    let queue = IngestQueue::new();
    let drain_hist = Histogram::new();
    for i in 0..samples {
        queue.push(Frame {
            stream: "vitals".into(),
            row: vec![Value::Timestamp(i as i64), Value::Float(wave.sample(i))],
        });
        if i % 1000 == 999 {
            let t0 = std::time::Instant::now();
            queue.drain_into(&mut engine)?;
            drain_hist.record(t0.elapsed());
        }
    }
    queue.drain_into(&mut engine)?;

    let alerts = engine.table("alerts")?.snapshot();
    println!("\n{} alerts raised; first few:", alerts.len());
    for row in alerts.rows().iter().take(6) {
        println!("  t={} score={}", row[0], row[1]);
    }
    println!(
        "1000-sample drain latency over {} batches: mean {:?}, p50 ≤ {:?}, p99 ≤ {:?}",
        drain_hist.count(),
        drain_hist.mean(),
        drain_hist.quantile(0.5).unwrap_or_default(),
        drain_hist.quantile(0.99).unwrap_or_default(),
    );

    // §3: data ages out of S-Store into the array engine for history.
    let aged = engine.drain_aged("vitals", samples as i64 - 500)?;
    println!(
        "\naged {} samples out of S-Store into the array store",
        aged.len()
    );
    let history: Vec<f64> = aged
        .iter()
        .map(|r| r[1].as_f64())
        .collect::<Result<_, _>>()?;
    let arr = bigdawg::array::Array::from_vector("history", "v", &history, 1024);
    let signal = arr.to_vector("v")?;
    if let Some((bin, mag)) = dominant_frequency(&signal) {
        let hz = bin as f64 * 125.0 / signal.len().next_power_of_two() as f64;
        println!("dominant frequency of the aged window: {hz:.2} Hz (magnitude {mag:.1})");
        println!("patient's generated heart rate: {:.2} Hz", wave.heart_hz());
    }

    // Recovery: replay the command log into a fresh engine.
    let recovered_len = {
        let mut fresh = Engine::new(false);
        fresh.create_stream("vitals", schema, "ts", 2_000)?;
        fresh.create_window("vitals", "w", "hr", WindowSpec::tumbling(125))?;
        fresh.create_table(
            "alerts",
            Schema::from_pairs(&[("ts", DataType::Timestamp), ("score", DataType::Float)]),
        )?;
        let det = std::sync::Arc::clone(&detector);
        fresh.register_proc(
            "compare_reference",
            Box::new(move |ctx, _| {
                let snap = ctx.stream_snapshot("vitals")?;
                let window: Vec<f64> = snap
                    .rows()
                    .iter()
                    .rev()
                    .take(125)
                    .map(|r| r[1].as_f64())
                    .collect::<Result<Vec<_>, _>>()?
                    .into_iter()
                    .rev()
                    .collect();
                if window.len() == 125 {
                    let score = det.score(7, &window)?;
                    if score > det.threshold {
                        let ts = ctx.event_ts;
                        ctx.insert("alerts", vec![Value::Timestamp(ts), Value::Float(score)])?;
                    }
                }
                Ok(())
            }),
        );
        fresh.on_window("vitals", "w", "compare_reference")?;
        fresh.replay(engine.command_log())?;
        fresh.table("alerts")?.len()
    };
    println!(
        "\nafter crash + replay: {recovered_len} alerts reconstructed (same as before: {})",
        alerts.len()
    );
    Ok(())
}
