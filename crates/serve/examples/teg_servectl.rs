//! A command-line controller for a running `teg-served` daemon.
//!
//! ```text
//! cargo run -p teg-serve --example teg_servectl -- stats    127.0.0.1:7070
//! cargo run -p teg-serve --example teg_servectl -- submit   127.0.0.1:7070 nightly \
//!     "modules=20,40|seeds=1,2|drive=city:120|lineup=paper-fixed:0.002" fixed:0.002
//! cargo run -p teg-serve --example teg_servectl -- cancel   127.0.0.1:7070 nightly
//! cargo run -p teg-serve --example teg_servectl -- shutdown 127.0.0.1:7070
//! ```
//!
//! `submit` streams progress as cells arrive and prints the per-scheme
//! summary table once the sweep completes.

use std::process::ExitCode;

use teg_serve::{protocol::parse_policy, ServeClient, SubmitRequest};
use teg_sim::GridSpec;

fn usage() -> ExitCode {
    eprintln!(
        "usage: teg_servectl stats <addr>\n\
         \x20      teg_servectl submit <addr> <id> <grid-spec> [policy]\n\
         \x20      teg_servectl cancel <addr> <id>\n\
         \x20      teg_servectl shutdown <addr>\n\
         policy: `measured` (default) or `fixed:<seconds>`"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, addr] if cmd == "stats" => stats(addr),
        [cmd, addr] if cmd == "shutdown" => shutdown(addr),
        [cmd, addr, id] if cmd == "cancel" => cancel(addr, id),
        [cmd, addr, id, spec] if cmd == "submit" => submit(addr, id, spec, "measured"),
        [cmd, addr, id, spec, policy] if cmd == "submit" => submit(addr, id, spec, policy),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

fn stats(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let reply = ServeClient::connect(addr)?.stats()?;
    println!("active sweeps      {}", reply.active);
    println!("queued cells       {}", reply.queued_cells);
    println!("completed sweeps   {}", reply.completed_requests);
    println!("workers            {}", reply.workers);
    println!(
        "trace cache        {} entries, {} hits / {} misses, {} evictions",
        reply.cache_len, reply.cache_hits, reply.cache_misses, reply.cache_evictions
    );
    println!("workers respawned  {}", reply.workers_respawned);
    println!(
        "connections        {} open, {} rejected at the cap",
        reply.connections, reply.connections_rejected
    );
    Ok(())
}

fn cancel(addr: &str, id: &str) -> Result<(), Box<dyn std::error::Error>> {
    ServeClient::connect(addr)?.cancel(id)?;
    println!("cancelled `{id}`");
    Ok(())
}

fn shutdown(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    ServeClient::connect(addr)?.shutdown_server()?;
    println!("daemon acknowledged shutdown");
    Ok(())
}

fn submit(
    addr: &str,
    id: &str,
    spec: &str,
    policy: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let request = SubmitRequest {
        id: id.to_owned(),
        grid: GridSpec::parse(spec)?,
        policy: parse_policy(policy)?,
    };
    let mut client = ServeClient::connect(addr)?;
    let mut stream = client.submit(&request)?;
    let total = stream.accepted().cells;
    let resumed = stream.accepted().resumed;
    if resumed > 0 {
        println!("accepted: {total} cells ({resumed} resumed from checkpoint)");
    } else {
        println!("accepted: {total} cells");
    }
    while let Some(cell) = stream.next_cell()? {
        println!(
            "  [{}/{}] {} — {} schemes",
            cell.key().index() + 1,
            total,
            cell.key(),
            cell.report().reports().len()
        );
    }
    let report = stream.into_report()?;
    println!(
        "done: {} thermal solves\n\n{}",
        report.thermal_solves(),
        report.summary_table()
    );
    Ok(())
}
