//! The measured run: prints the end-to-end metrics as its last line.
//! `--trace 1` belongs to `perfbench-traced`.

use std::process::ExitCode;

use mobivine_perfbench::measure::{measure, measure_fleet};
use mobivine_perfbench::report::{result_line, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) if !args.trace => args,
        Ok(_) => {
            eprintln!("perfbench: the traced run is perfbench-traced");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let measured = if args.one_fleet {
        measure_fleet(args.workload, args.seed)
    } else {
        measure(args.workload, args.seed, args.seconds)
    };
    println!(
        "{}",
        result_line(
            measured.correct,
            measured.attempted,
            measured.failed,
            &measured.metrics
        )
    );
    if measured.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
