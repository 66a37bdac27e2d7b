//! `snap-benchmark run --workload <name> [--seed <u64>] [--seconds <s>]
//! [--trace <0|1>] [--quick] [--threads <n>] [--force] [--out <file>]`
//! and `snap-benchmark compare <a> <b>`. See `README.md`.

use snap_benchmark::compare::{compare, parse_result_set, Verdict};
use snap_benchmark::report::WORKLOADS;
use snap_benchmark::workloads::{spec, Options};
use snap_benchmark::{layers, workloads};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "usage:
  snap-benchmark run --workload <build-bulk|serve-insert|serve-churn|serve-mixed>
      [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--quick]
      [--threads <n>] [--force] [--out <file>]
  snap-benchmark compare <a.jsonl> <b.jsonl>";

/// Runnable threads the benchmark uses unless told otherwise.
const MAX_THREADS: usize = 4;

struct RunArgs {
    workload: String,
    trace: bool,
    out: Option<String>,
    opts: Options,
}

fn parse_run(args: &[String], nproc: usize) -> Result<RunArgs, String> {
    let (mut workload, mut trace, mut out, mut force) = (None, false, None, false);
    let mut opts = Options {
        seed: 42,
        seconds: 22.0,
        quick: false,
        threads: nproc.min(MAX_THREADS),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => opts.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--threads" => opts.threads = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--out" => out = Some(value()?.clone()),
            "--quick" => opts.quick = true,
            "--force" => force = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if opts.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    // More runnable threads than cores measures the scheduler, not the
    // library: a thread-scaling figure needs a machine with the cores.
    if opts.threads > nproc && !force {
        return Err(format!(
            "--threads {} exceeds the {nproc} available cores; pass --force to run anyway",
            opts.threads
        ));
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        trace,
        out,
        opts,
    })
}

/// Confines the C allocator to one arena. With glibc's default, every
/// short-lived worker thread the library spawns may land on a different
/// arena, and how freed graph memory is spread over them — so how much of
/// it the next repetition can reuse — depends on thread timing: peak RSS
/// of identical runs differed by up to 60 % (112–149 MB on `serve-churn`
/// against 87–93 MB with one arena), with no measurable effect on speed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_ARENA_MAX: std::ffi::c_int = -8;
    // SAFETY: `mallopt` only sets a tunable of the C allocator; it is
    // called first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".into(), |s| s.trim().to_string())
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let RunArgs {
        workload,
        trace,
        out,
        opts,
    } = parse_run(args, nproc)?;
    let spec = spec(&workload, opts.quick).ok_or(format!(
        "unknown workload `{workload}`; one of {WORKLOADS:?}"
    ))?;
    let mut stdout = std::io::stdout().lock();
    writeln!(
        stdout,
        "workload {} seed {} seconds {} trace {} quick {} nproc {nproc} threads {} rev {}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(trace),
        opts.quick,
        opts.threads,
        git_rev()
    )
    .map_err(|e| e.to_string())?;
    // The whole run sits inside one installed pool, so every parallel
    // call the client thread makes is `threads` wide and no wider.
    let report = snap::util::thread_pool(opts.threads).install(|| {
        if trace {
            let (report, tracer) = layers::run_traced(&spec, &opts);
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-{}.json", spec.name, opts.seed));
            tracer
                .write_json(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            writeln!(
                stdout,
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )
            .map_err(|e| e.to_string())?;
            Ok::<_, String>(report)
        } else {
            Ok(workloads::run_end_to_end(&spec, &opts))
        }
    })?;
    let line = report.print(trace, &mut stdout)?;
    if let Some(path) = out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            spec.name,
            opts.seed,
            u8::from(trace)
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(record.as_bytes()))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    // A failed operation is a failed run, whatever it measured.
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_result_set(&text).map_err(|e| format!("{path}: {e}")))
    };
    let verdicts = compare(&load(a)?, &load(b)?, &mut std::io::stdout().lock())?;
    Ok(if verdicts.contains(&Verdict::Worse) {
        ExitCode::from(1)
    } else if verdicts.contains(&Verdict::Unresolved) {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, [a, b])) if cmd == "compare" => compare_files(a, b),
        _ => Err(USAGE.to_string()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("snap-benchmark: {message}");
        ExitCode::from(64)
    })
}
