//! Command line: `anonring-perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`.
//!
//! Prints the host fingerprint, the workload's deterministic-count
//! fingerprint and run notes as JSON lines, then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

use std::fmt::Write as _;

use anonring_bench::json::json_escape;
use anonring_perfbench::measure::{
    alu_probe_ns, git_revision, median, memory_probe_ns, nproc, peak_rss_mib, quantile,
};
use anonring_perfbench::{run, Config, END_TO_END, PER_LAYER};

fn parse_args() -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => config.workload = value()?,
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => config.trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if config.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if config.seconds.is_nan() || config.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(config)
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
}

fn main() {
    let config = match parse_args() {
        Ok(config) => config,
        Err(e) => {
            eprintln!("anonring-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("anonring-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Read before the drift probes, whose 4 MiB chase would otherwise
    // set the peak of a small workload.
    let rss = peak_rss_mib();
    let probes = (memory_probe_ns(), alu_probe_ns());

    println!(
        "{{\"type\":\"host\",\"nproc\":{},\"rustc\":\"{}\",\"git\":\"{}\",\"profile\":\"{}\",\
         \"mem_probe_ns\":{:.3},\"alu_probe_ns\":{:.4}}}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        git_revision(),
        env!("PERFBENCH_PROFILE"),
        probes.0,
        probes.1,
    );
    println!(
        "{{\"type\":\"fingerprint\",\"workload\":\"{}\",\"seed\":{},\"counts\":{}}}",
        config.workload,
        config.seed,
        outcome.fingerprint.to_json()
    );
    for line in &outcome.info {
        println!("{line}");
    }
    for failure in &outcome.failures {
        println!(
            "{{\"type\":\"failure\",\"error\":\"{}\"}}",
            json_escape(failure)
        );
    }
    let samples: Vec<f64> = outcome.latency_windows.concat();
    let p50s: Vec<f64> = outcome
        .latency_windows
        .iter()
        .map(|w| quantile(w, 0.5))
        .collect();
    let p90s: Vec<f64> = outcome
        .latency_windows
        .iter()
        .map(|w| quantile(w, 0.9))
        .collect();
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.5}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    // Pooled over every sample, or the median of the windows' quantiles.
    let (p50, p90) = if outcome.window_quantiles {
        (median(&p50s), median(&p90s))
    } else {
        (quantile(&samples, 0.5), quantile(&samples, 0.9))
    };
    println!(
        "{{\"type\":\"latency\",\"samples\":{},\"windows\":{},\"pooled_p50_ms\":{},\
         \"pooled_p90_ms\":{},\"p50_ms\":{p50},\"p90_ms\":{p90},\"failed_share\":{}}}",
        samples.len(),
        p50s.len(),
        quantile(&samples, 0.5),
        quantile(&samples, 0.9),
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!(
        "{{\"type\":\"windows\",\"ops_per_s\":[{}],\"p50_ms\":[{}],\"p90_ms\":[{}]}}",
        list(&outcome.throughput),
        list(&p50s),
        list(&p90s)
    );
    if config.trace && !outcome.spans.is_empty() {
        let path = format!(
            "perfbench/out/spans-{}-{}.jsonl",
            config.workload, config.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, &outcome.spans));
        match written {
            Ok(()) => println!("{{\"type\":\"spans\",\"path\":\"{path}\"}}"),
            Err(e) => eprintln!("anonring-perfbench: writing {path}: {e}"),
        }
    }

    let mut metrics = String::from("{");
    if config.trace {
        for (name, unit) in PER_LAYER {
            let value = outcome
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metric(&mut metrics, name, value, unit);
        }
    } else {
        for (name, unit) in END_TO_END {
            let value = match name {
                "ops_per_s" => outcome.completed.0 as f64 / outcome.completed.1,
                "latency_p50_ms" => p50,
                "latency_p90_ms" => p90,
                "ok_share" => {
                    outcome.attempted.saturating_sub(outcome.failed) as f64
                        / outcome.attempted.max(1) as f64
                }
                "peak_rss_mib" => rss,
                "setup_s" => median(&outcome.setups),
                _ => unreachable!("every end-to-end metric has a value"),
            };
            metric(&mut metrics, name, value, unit);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
}
