//! `stbench`: one benchmark for RIHGCN training and serving, end to end
//! and layer by layer.
//!
//! ```text
//! stbench --workload NAME --seed S [--seconds N] [--trace 0|1] [--smoke]
//! ```
//!
//! Runs one workload (`train-paper`, `train-exp`, `serve-city`,
//! `serve-fleet`) in this process, checks the outputs, and prints every
//! metric as `metric NAME VALUE UNIT` followed by one JSON result line.
//! An untraced run prints the end-to-end metrics; `--trace 1` (or
//! `--traced`) turns on st-obs spans and prints the per-layer metrics
//! instead. Exits 1 if any output check fails, 2 on bad arguments.

mod layers;
mod report;
mod serve;
mod train;

#[global_allocator]
static ALLOC: st_obs::alloc::CountingAlloc = st_obs::alloc::CountingAlloc;

/// Worker threads for the parallel kernels, the HTTP workers and the
/// load generator: the 2 vCPUs of the reference host.
pub const THREADS: usize = 2;

/// Measured seconds when `--seconds` is absent (the `run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    TrainPaper,
    TrainExp,
    ServeCity,
    ServeFleet,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("train-paper", Workload::TrainPaper),
        ("train-exp", Workload::TrainExp),
        ("serve-city", Workload::ServeCity),
        ("serve-fleet", Workload::ServeFleet),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }
}

/// The sizes of one workload.
enum Spec {
    Train(train::TrainSpec),
    Serve(serve::ServeSpec),
}

impl Spec {
    fn of(workload: Workload, smoke: bool) -> Spec {
        match workload {
            Workload::TrainPaper => Spec::Train(train::paper(smoke)),
            Workload::TrainExp => Spec::Train(train::exp(smoke)),
            Workload::ServeCity => Spec::Serve(serve::city(smoke)),
            Workload::ServeFleet => Spec::Serve(serve::fleet(smoke)),
        }
    }

    fn ring(&self) -> usize {
        match self {
            Spec::Train(spec) => spec.ring,
            Spec::Serve(spec) => spec.ring,
        }
    }

    fn run(&self, seed: u64, seconds: f64, traced: bool) -> report::Report {
        match self {
            Spec::Train(spec) => train::run(spec, seed, seconds, traced),
            Spec::Serve(spec) => serve::run(spec, seed, seconds, traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = false;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value("--seconds")?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|(n, _)| *n).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required ({})", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if smoke { 1.0 } else { DEFAULT_SECONDS }),
        traced,
        smoke,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stbench: {e}");
            eprintln!(
                "usage: stbench --workload NAME --seed S [--seconds N] [--trace 0|1] [--smoke]"
            );
            std::process::exit(2);
        }
    };
    st_par::set_num_threads(THREADS);
    let spec = Spec::of(args.workload, args.smoke);
    if args.traced {
        // Sized per workload so that no span is overwritten between two
        // drains; read once, before the first span opens a ring.
        std::env::set_var("ST_OBS_RING", spec.ring().to_string());
    }
    st_obs::set_enabled(args.traced);
    let report = spec.run(args.seed, args.seconds, args.traced);
    report.print(args.traced);
    if !report.correct() {
        std::process::exit(1);
    }
}
