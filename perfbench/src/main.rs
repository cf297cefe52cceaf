//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (plus `--low-rps`, `--high-rps` and `--limit-ms` for `serve-open`).
//! Prints a table, then one JSON result line as the last line of standard
//! output. See `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use npar_perfbench::batch::Scale;
use npar_perfbench::report::{per_layer, END_TO_END};
use npar_perfbench::serve::Rates;
use npar_perfbench::{run, trace, Workload, WORKLOADS};

const FLAGS: [&str; 7] = [
    "workload", "seed", "seconds", "trace", "low-rps", "high-rps", "limit-ms",
];

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    rates: Rates,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut kv = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| FLAGS.contains(k))
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("--{k} is required"));
    let num = |k: &str| -> Result<f64, String> {
        let v = get(k)?;
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--{k} {v:?} is not a positive number"))
    };
    let name = get("workload")?.clone();
    let workload = Workload::parse(&name).ok_or_else(|| {
        format!(
            "unknown workload {name:?} (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    let seed = get("seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let traced = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    let rates = if workload == Workload::ServeOpen {
        Rates {
            low_rps: num("low-rps")?,
            high_rps: num("high-rps")?,
            limit_ms: num("limit-ms")?,
        }
    } else {
        Rates {
            low_rps: 1.0,
            high_rps: 1.0,
            limit_ms: 1.0,
        }
    };
    Ok(Args {
        workload,
        name,
        seed,
        seconds: num("seconds")?,
        traced,
        rates,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Recursive templates nest device launches deeply; give the run the
    // same large stack the experiment binaries use.
    let (workload, seed, seconds, traced, rates) = (
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        args.rates,
    );
    let (mut outcome, spans) = std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(1 << 30)
        .spawn(move || run(workload, seed, seconds, traced, rates, Scale::FULL))
        .expect("spawn benchmark thread")
        .join()
        .expect("benchmark thread panicked");
    let names = if args.traced {
        let path = trace_path(&args.name, args.seed);
        match std::fs::create_dir_all(path.parent().expect("trace dir"))
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)))
        {
            Ok(()) => outcome.lines.push(format!(
                "spans: {} written to {}",
                spans.len(),
                path.display()
            )),
            Err(e) => outcome.fail(format!("writing {}: {e}", path.display())),
        }
        outcome.lines.push(format!(
            "{:<40} {:>8} {:>12} {:>12}",
            "span (layer)", "count", "total_s", "self_s"
        ));
        for row in trace::layer_table(&spans) {
            outcome.lines.push(format!(
                "{:<40} {:>8} {:>12.6} {:>12.6}",
                row.name, row.count, row.total_s, row.self_s
            ));
        }
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    print!("{}", outcome.render(&names));
    ExitCode::SUCCESS
}

/// The span file of a traced run: in the build directory, next to the
/// benchmark's own executable.
fn trace_path(workload: &str, seed: u64) -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
        .join("perfbench-traces")
        .join(format!("{workload}-seed{seed}.json"))
}
