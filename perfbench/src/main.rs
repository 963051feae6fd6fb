//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! prints the host-noise record, then the result line (last line of
//! standard output).

use perfbench::run::{self, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run::run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        match run::write_trace(&args, &report) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write the trace: {e}"),
        }
    }
    println!("{}", report.host);
    println!("{}", report.result_line());
}
