//! Command-line entry point of the fleet benchmark; see the library
//! docs for what each mode measures.
//!
//! The same executable is the worker program of supervised samples:
//! invoked with `--shard-out`, it evaluates one shard of a harness
//! workload and lands its artifact, exactly as `fleet_worker` does.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fleet_harness::{exit, run_worker, WorkerConfig, Workload};
use fleet_obs::json::Json;
use fleetbench::layers::{self, LayerCosts};
use fleetbench::workload::{Expected, Kind, Prepared, Sample, IN_PROCESS_THREADS};
use fleetbench::{median, sys, tail, TAIL_BEYOND};
use scenario_fleet::{Collector, RunReport};

/// Fresh set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 21;
/// Fewest traced samples (each paired with an untraced one) per run.
const MIN_TRACED_PAIRS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 2026;
    let mut seconds = 10;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value)?),
            "--seed" => seed = value.parse().map_err(|e| format!("bad seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("bad seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Worker mode: the flags `Workload::to_args` plus the supervisor's
/// `--shard i/N --shard-out PATH` (chaos is never scheduled here).
fn worker_main(args: &[String]) -> Result<i32, String> {
    let mut kind = None;
    let mut seed = None;
    let mut budget = None;
    let mut threads = None;
    let mut shard = None;
    let mut out_path = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<u64>()
                .map_err(|e| format!("bad {what} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => kind = Some(value.clone()),
            "--seed" => seed = Some(number("seed")?),
            "--budget" => budget = Some(number("budget")?),
            "--threads" => threads = Some(number("threads")? as usize),
            "--shard" => {
                let (index, count) = value
                    .split_once('/')
                    .ok_or_else(|| format!("--shard wants i/N, got {value:?}"))?;
                let parse = |part: &str| {
                    part.parse::<usize>()
                        .map_err(|e| format!("bad shard {value:?}: {e}"))
                };
                shard = Some((parse(index)?, parse(count)?));
            }
            "--shard-out" => out_path = Some(PathBuf::from(value)),
            other => return Err(format!("unknown worker argument {other:?}")),
        }
    }
    let workload = Workload::from_cli(
        &kind.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        false,
        budget,
        threads,
    )?;
    let (shard_index, shard_count) = shard.ok_or("--shard is required")?;
    let config = WorkerConfig {
        shard_index,
        shard_count,
        out_path: out_path.ok_or("--shard-out is required")?,
        chaos: None,
        fail: false,
    };
    let code = run_worker(&workload, &config)?;
    sys::record_peak_rss(&config.out_path)?;
    Ok(code)
}

/// Samples counted against the check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Runs and checks one sample; a failed sample yields `None` and is
    /// never timed.
    fn sample(
        &mut self,
        prepared: &Prepared,
        expected: &mut Option<Expected>,
        collector: &Collector,
    ) -> Option<Sample> {
        self.attempted += 1;
        let checked = prepared.sample(collector).and_then(|sample| {
            match expected {
                Some(expected) => expected.check(&sample.scorecard)?,
                // The first sample fixes what every later one must match.
                None => {
                    *expected = Some(Expected::Digest(fleetbench::workload::digest(
                        &sample.scorecard,
                    )))
                }
            }
            Ok(sample)
        });
        match checked {
            Ok(sample) => Some(sample),
            Err(e) => {
                eprintln!("fleetbench: {} sample failed: {e}", prepared.kind().name());
                self.failed += 1;
                None
            }
        }
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ]),
    )
}

fn seconds_array(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::Num).collect())
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the benchmark: returns the context fields, the result object,
/// and the raw timings the run record keeps.
fn run(args: &Args) -> Result<(Json, Json, Json), String> {
    let dir = out_dir();
    let artifact_dir = dir.join("artifacts").join(args.kind.name());
    std::fs::create_dir_all(&artifact_dir)
        .map_err(|e| format!("output dir {}: {e}", artifact_dir.display()))?;
    let steal_before = sys::steal_ticks();

    let set_up = || -> Result<(Prepared, f64), String> {
        let started = Instant::now();
        let prepared = Prepared::new(args.kind, args.seed, IN_PROCESS_THREADS, &artifact_dir)?;
        Ok((prepared, started.elapsed().as_secs_f64()))
    };
    let (prepared, first_setup_s) = set_up()?;
    let mut setups = vec![first_setup_s];
    let mut expected = prepared.reference()?;
    let mut tally = Tally::default();
    let noop = Collector::noop();
    // Warm-up: lazy allocations settle before anything is timed.
    tally.sample(&prepared, &mut expected, &noop);

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut context = vec![
        ("workload", Json::Str(args.kind.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("nproc", Json::Num(sys::nproc() as f64)),
    ];
    let mut raw = Vec::new();
    let metrics = if args.trace {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        // The first traced sample's report is the run report, taken as
        // the sample ends; every later traced ledger must repeat its
        // ledger byte for byte.
        let mut first: Option<(RunReport, String)> = None;
        let mut ledgers_repeat = true;
        while traced.len() < MIN_TRACED_PAIRS || started.elapsed() < budget {
            if let Some(sample) = tally.sample(&prepared, &mut expected, &noop) {
                untraced.push(sample.wall_s);
            }
            let collector = Collector::recording();
            let cpu_before = sys::cpu_s();
            let sample = tally.sample(&prepared, &mut expected, &collector);
            let cpu_s = sys::cpu_s() - cpu_before;
            if let Some(sample) = sample {
                traced.push(layers::Traced {
                    wall_s: sample.wall_s,
                    cpu_s,
                });
                let ledger = collector.ledger().to_json_string();
                match &first {
                    Some((_, reference)) => ledgers_repeat &= *reference == ledger,
                    None => first = Some((collector.report(), ledger)),
                }
            }
            if tally.failed > 0 {
                break;
            }
        }
        let (Some((report, _)), false) = (first, untraced.is_empty()) else {
            return Err("no sample passed its check".to_string());
        };
        if !ledgers_repeat {
            tally.failed += 1;
            eprintln!("fleetbench: ledger counts differ between traced samples");
        }
        let layer_collector = Collector::recording();
        let costs = LayerCosts::measure(
            prepared.matrix(),
            args.seed,
            &artifact_dir,
            &layer_collector,
        )?;
        let (metrics, model_s) = layers::summarize(
            args.kind,
            &costs,
            &report.ledger,
            (prepared.matrix().predictors.len() * prepared.matrix().managers.len()) as f64,
            &traced,
            median(&untraced),
        );
        let stem = format!("{}-seed{}", args.kind.name(), args.seed);
        report.write_atomic(&dir.join(format!("{stem}.report.json")))?;
        layer_collector
            .report()
            .write_atomic(&dir.join(format!("{stem}.layers.report.json")))?;
        context.push(("run_report", Json::Str(format!("{stem}.report.json"))));
        context.push(("traced_samples", Json::Num(traced.len() as f64)));
        context.push((
            "model_s",
            Json::Obj(
                model_s
                    .into_iter()
                    .map(|(layer, seconds)| (layer.to_string(), Json::Num(seconds)))
                    .collect(),
            ),
        ));
        metrics
            .into_iter()
            .map(|(name, value, unit)| metric(name, value, unit))
            .collect()
    } else {
        let mut walls = Vec::new();
        while walls.len() <= TAIL_BEYOND || started.elapsed() < budget {
            if let Some(sample) = tally.sample(&prepared, &mut expected, &noop) {
                walls.push(sample.wall_s);
            }
            // Fresh set-ups are spread evenly over the timed window, so
            // their median sees the same host as the samples do rather
            // than the first few milliseconds of the run.
            if setups.len() < SETUP_REPEATS
                && started.elapsed() >= budget.mul_f64(setups.len() as f64 / SETUP_REPEATS as f64)
            {
                let (fresh, setup_s) = set_up()?;
                setups.push(setup_s);
                drop(fresh);
            }
            if tally.failed > 0 {
                break;
            }
        }
        let tail = tail(&walls).ok_or("too few samples passed their check for a tail")?;
        context.push(("tail_percentile", Json::Num(tail.percentile)));
        context.push(("tail_samples", Json::Num(tail.samples as f64)));
        context.push(("setup_repeats", Json::Num(setups.len() as f64)));
        raw.push(("setups_s", seconds_array(&setups)));
        raw.push(("samples_s", seconds_array(&walls)));
        vec![
            metric("eval_s.p50", median(&walls), "s"),
            metric("eval_s.tail", tail.value, "s"),
            metric("setup_s", median(&setups), "s"),
            metric(
                "peak_rss_mb",
                sys::own_peak_rss_kib()?.max(prepared.worker_peak_kib()) as f64 / 1024.0,
                "MiB",
            ),
        ]
    };
    if let (Some(before), Some(after)) = (steal_before, sys::steal_ticks()) {
        context.push((
            "steal_ticks",
            Json::Num(after.saturating_sub(before) as f64),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(tally.failed == 0)),
        ("attempted".to_string(), Json::Num(tally.attempted as f64)),
        ("failed".to_string(), Json::Num(tally.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    Ok((Json::obj(context), result, Json::obj(raw)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "--shard-out") {
        let code = worker_main(&args).unwrap_or_else(|e| {
            eprintln!("fleetbench worker: {e}");
            exit::FAILED
        });
        std::process::exit(code);
    }
    let outcome = parse_args(&args).and_then(|args| {
        let (context, result, raw) = run(&args)?;
        let name = format!(
            "{}-seed{}-trace{}.json",
            args.kind.name(),
            args.seed,
            u8::from(args.trace)
        );
        let record = Json::obj([
            ("context", context.clone()),
            ("result", result.clone()),
            ("raw", raw),
        ]);
        fleet_obs::fsio::write_atomic_str(&out_dir().join(name), &record.render_pretty())?;
        Ok((context, result))
    });
    match outcome {
        Ok((context, result)) => {
            println!("{}", Json::obj([("context", context)]).render());
            println!("{}", result.render());
        }
        Err(e) => {
            eprintln!("fleetbench: {e}");
            std::process::exit(1);
        }
    }
}
