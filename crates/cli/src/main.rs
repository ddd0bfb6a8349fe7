//! Thin binary wrapper over [`graphbolt_cli::run`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

fn main() {
    let opts = match graphbolt_cli::Options::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match graphbolt_cli::run(&opts) {
        Ok(report) => print!("{report}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    }
}
