//! The traced run: prints the per-layer metrics as its last line and
//! writes the spans as Chrome trace-event JSON to
//! `out/trace-<workload>.json` in the benchmark's directory.

use std::path::Path;
use std::process::ExitCode;

use mobivine_perfbench::alloc::CountingAlloc;
use mobivine_perfbench::report::{result_line, Args};
use mobivine_perfbench::traced::run_traced;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-traced: {e}");
            return ExitCode::from(2);
        }
    };
    let trace_out = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", args.workload.name()));
    let run = run_traced(args.workload, args.seed, args.seconds, &trace_out);
    println!(
        "{}",
        result_line(run.correct, run.attempted, run.failed, &run.metrics)
    );
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
