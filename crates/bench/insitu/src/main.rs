//! The repository benchmark: one in situ cycle per renderer family,
//! sort-last compositing, and feasd queries, timed end to end and layer by
//! layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/insitu/Cargo.toml -- \
//!     --workload <surface_lulesh|volume_lulesh|sortlast_kripke|feasd_queries> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the system is driven only through
//! its crates' public functions, and every output is checked. The last line
//! of standard output is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1` (see `METRICS.md`).

mod common;
mod feasd_load;
mod lulesh;
mod report;
mod sortlast;
mod stats;
mod trace;

use report::Outcome;

const WORKLOADS: [&str; 4] =
    ["surface_lulesh", "volume_lulesh", "sortlast_kripke", "feasd_queries"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Cache size from sysfs (`index2` is L2, `index3` L3 on x86 Linux).
fn cache_size(index: u32) -> String {
    std::fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size"))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The commit of the checkout when it is a git work tree, read from its
/// own `.git` directory.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None => head,
    }
}

fn host_record(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    format!(
        "host: nproc={} rayon_threads={} DPP_PAR_MIN_LEN={} (active {}) DPP_FOLD_GRAIN={} (active {}) \
         DPP_OVERPARTITION={} (active {}) L2={} L3={} commit={} workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        rayon::current_num_threads(),
        env("DPP_PAR_MIN_LEN"),
        dpp::par_min_len(),
        env("DPP_FOLD_GRAIN"),
        rayon::fold_grain(),
        env("DPP_OVERPARTITION"),
        rayon::overpartition(),
        cache_size(2),
        cache_size(3),
        commit(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
    )
}

fn run(args: &Args) -> Result<String, String> {
    let mut out = Outcome::default();
    out.note(host_record(args));
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "surface_lulesh" => lulesh::run(lulesh::Kind::Surface, seed, secs, trace, &mut out)?,
        "volume_lulesh" => lulesh::run(lulesh::Kind::Volume, seed, secs, trace, &mut out)?,
        "sortlast_kripke" => sortlast::run(seed, secs, trace, &mut out)?,
        _ => feasd_load::run(seed, secs, trace, &mut out)?,
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.line("failed_frac", failed_frac, "frac", out.attempted as usize);
    out.render(trace)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("insitu-bench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("insitu-bench: {e}");
            std::process::exit(1);
        }
    }
}
