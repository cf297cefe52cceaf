//! `npar-serve` — the JSON-lines front end over [`npar_serve::Service`].
//!
//! Reads one [`npar_serve::Request`] per stdin line, submits each to the
//! sharded fleet as it arrives (so independent requests simulate
//! concurrently while stdin streams), and after EOF prints one JSON
//! response per input line to stdout **in input order**:
//!
//! ```text
//! {"id":0,"key":"0x…","status":"done","source":"fresh","report":{…}}
//! {"id":1,"key":"0x…","status":"done","source":"cache","report":{…}}
//! {"id":2,"status":"shed"}
//! ```
//!
//! `status` is one of `done` / `timeout` / `failed` / `shed` / `invalid`
//! (the last two are refused at submit time and carry an `error` field;
//! `invalid` also answers a line that does not parse as a request,
//! including one that is not UTF-8).
//! Per-shard and fleet-total stats go to stderr on shutdown, which also
//! spills the result + memo cache when `--cache-dir` (or
//! `NPAR_SERVE_CACHE`) names a directory — see SERVING.md for the full
//! operator walkthrough and a flag-by-flag reference.

use std::io::{BufRead, Write};

use npar_bench::runner;
use npar_serve::{Request, Response, Service, Source, SubmitError, Ticket};
use serde::{Serialize, Value};

/// What one input line turned into at submit time.
enum Submitted {
    Ticket(Ticket),
    Refused(SubmitError),
    Unparsed(String),
}

fn response_value(id: usize, sub: Submitted) -> Value {
    let mut fields: Vec<(String, Value)> = vec![("id".into(), (id as u64).to_value())];
    match sub {
        Submitted::Ticket(ticket) => {
            fields.push(("key".into(), format!("{:#018x}", ticket.key).to_value()));
            match ticket.wait() {
                Response::Done { source, report } => {
                    let source = match source {
                        Source::Fresh => "fresh",
                        Source::Cache => "cache",
                        Source::Dedup => "dedup",
                    };
                    fields.push(("status".into(), "done".to_value()));
                    fields.push(("source".into(), source.to_value()));
                    fields.push(("report".into(), report.to_value()));
                }
                Response::TimedOut => fields.push(("status".into(), "timeout".to_value())),
                Response::Failed(e) => {
                    fields.push(("status".into(), "failed".to_value()));
                    fields.push(("error".into(), e.to_value()));
                }
            }
        }
        Submitted::Refused(SubmitError::Shed) => {
            fields.push(("status".into(), "shed".to_value()));
        }
        Submitted::Refused(SubmitError::Invalid(e)) => {
            fields.push(("status".into(), "invalid".to_value()));
            fields.push(("error".into(), e.to_value()));
        }
        Submitted::Unparsed(e) => {
            fields.push(("status".into(), "invalid".to_value()));
            fields.push(("error".into(), e.to_value()));
        }
    }
    Value::Object(fields)
}

fn main() {
    runner::init();
    let service = Service::start(runner::serve_config());

    // Submit while stdin streams; tickets resolve in the background. Lines
    // are split as bytes so a non-UTF-8 line is answered `invalid` like any
    // other unparsable request instead of ending the run.
    let mut submitted = Vec::new();
    for line in std::io::stdin().lock().split(b'\n') {
        let line = match line.map(String::from_utf8) {
            Ok(Ok(line)) => line,
            Ok(Err(e)) => {
                submitted.push(Submitted::Unparsed(format!(
                    "unparsable request: line is not UTF-8: {e}"
                )));
                continue;
            }
            Err(e) => {
                eprintln!("npar-serve: read stdin: {e}; treating it as end of input");
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let sub = match serde_json::from_str::<Request>(&line) {
            Ok(req) => match service.submit(&req) {
                Ok(ticket) => Submitted::Ticket(ticket),
                Err(e) => Submitted::Refused(e),
            },
            Err(e) => Submitted::Unparsed(format!("unparsable request: {e}")),
        };
        submitted.push(sub);
    }

    // Answer in input order. A locked writer keeps large report lines whole.
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for (id, sub) in submitted.into_iter().enumerate() {
        let value = response_value(id, sub);
        writeln!(
            out,
            "{}",
            serde_json::to_string(&value).expect("serialize response")
        )
        .expect("write stdout");
    }
    drop(out);

    // Shutdown: spill the cache, print per-shard + total stats to stderr.
    for (shard, stats) in service.stats().iter().enumerate() {
        eprintln!("shard {shard}: {stats}");
    }
    let total = service.join();
    eprintln!("total: {total}");
}
