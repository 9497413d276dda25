//! The repository benchmark: four closed-loop workloads over the
//! workspace's public entry points, end-to-end metrics with the obs
//! recorder off, and a traced run (`--trace 1`) reporting per-layer
//! metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload link-sweep --seed 1 --seconds 15 --trace 0 [--revision REV]
//! ```
//!
//! The last line of stdout is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries provenance and per-run detail (sample counts, tail
//! percentiles, digests, the error rate). See `perfbench/README.md`.

mod city;
mod dist_tcp;
mod fault_campaign;
mod harness;
mod layers;
mod link_sweep;
mod stats;

use std::process::ExitCode;

use harness::{Opts, Size};

fn usage() -> ExitCode {
    eprintln!(
        "usage: wlan-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--revision <rev>]",
        harness::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Opts> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut revision = "unknown".to_owned();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().ok()?),
            "--seconds" => {
                let s = value.parse::<f64>().ok()?;
                if !(s > 0.0 && s <= 600.0) {
                    return None;
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            "--revision" => revision = value.clone(),
            _ => return None,
        }
    }
    let workload = workload?;
    if !harness::WORKLOADS.contains(&workload.as_str()) {
        return None;
    }
    Some(Opts {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        revision,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else {
        return usage();
    };
    // Capture the caller's knobs before the workload pins its own.
    let env = harness::wlan_env();
    // The sweep entry points size their pool from WLAN_THREADS; pin it
    // while this process is still single-threaded.
    std::env::set_var(
        wlan_math::par::THREADS_ENV,
        harness::threads_for(&opts.workload).to_string(),
    );
    let result = harness::run(&opts);
    println!("{}", harness::detail_line(&opts, &env, &result).to_json());
    println!("{}", harness::result_line(&opts, &result).to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::harness::{run, Opts, Size};

    /// A tiny-size run of `workload`: every check it makes must pass.
    fn smoke(workload: &str, trace: bool) {
        let opts = Opts {
            workload: workload.to_owned(),
            seed: 7,
            seconds: 0.01,
            trace,
            revision: "test".to_owned(),
            size: Size::Tiny,
        };
        let result = run(&opts);
        let c = &result.checks;
        assert!(c.attempted > 0, "{workload}: nothing checked");
        assert_eq!(c.failed, 0, "{workload}: {:?}", c.failures);
        assert!(!result.passes.is_empty());
    }

    #[test]
    fn link_sweep_smoke() {
        smoke("link-sweep", false);
    }

    #[test]
    fn fault_campaign_smoke() {
        smoke("fault-campaign", true);
    }

    #[test]
    fn city_smoke() {
        smoke("city", true);
    }

    #[test]
    fn dist_tcp_smoke() {
        smoke("dist-tcp", true);
    }
}
