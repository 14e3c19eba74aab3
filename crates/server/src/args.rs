//! The command-line flags of a serving process, shared by the
//! `goalrec-serve` binary and the `goalrec serve` subcommand so the two
//! cannot drift apart.

use crate::ServerConfig;
use std::path::PathBuf;
use std::time::Duration;

/// The flags both serve entry points take.
pub const USAGE: &str = "usage: goalrec-serve --library FILE[.jsonl|.grlb2] \
    [--addr HOST] [--port N] [--workers N] [--queue-depth N] \
    [--deadline-ms N] [--idle-ms N] \
    [--admin-deadline-ms N] [--append-max-entries N] \
    [--watch] [--compact-threshold N] [--compact-max-age-ms N] \
    [--no-trace] [--trace-sample-every N] \
    [--access-log] [--access-log-every N]";

/// Parses the serve flags into a [`ServerConfig`] whose `library_path` is
/// the required `--library` file. Errors (and `--help`) carry [`USAGE`].
pub fn parse_args(argv: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut library: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {flag}\n{USAGE}"))
        };
        match arg.as_str() {
            "--library" => library = Some(value("--library")?.to_owned()),
            "--addr" => config.addr = value("--addr")?.to_owned(),
            "--port" => config.port = parse_num(value("--port")?, "--port")?,
            "--workers" => config.workers = parse_num(value("--workers")?, "--workers")?,
            "--queue-depth" => {
                config.queue_depth = parse_num(value("--queue-depth")?, "--queue-depth")?
            }
            "--deadline-ms" => {
                config.deadline =
                    Duration::from_millis(parse_num(value("--deadline-ms")?, "--deadline-ms")?)
            }
            "--idle-ms" => {
                config.idle_timeout =
                    Duration::from_millis(parse_num(value("--idle-ms")?, "--idle-ms")?)
            }
            "--admin-deadline-ms" => {
                config.admin_deadline = Duration::from_millis(parse_num(
                    value("--admin-deadline-ms")?,
                    "--admin-deadline-ms",
                )?)
            }
            "--append-max-entries" => {
                config.append_max_entries =
                    parse_num(value("--append-max-entries")?, "--append-max-entries")?
            }
            "--watch" => config.watch = true,
            "--compact-threshold" => {
                config.compact_threshold =
                    parse_num(value("--compact-threshold")?, "--compact-threshold")?
            }
            "--compact-max-age-ms" => {
                config.compact_max_age = Duration::from_millis(parse_num(
                    value("--compact-max-age-ms")?,
                    "--compact-max-age-ms",
                )?)
            }
            "--no-trace" => config.trace_enabled = false,
            "--trace-sample-every" => {
                config.trace_sample_every =
                    parse_num(value("--trace-sample-every")?, "--trace-sample-every")?
            }
            "--access-log" => config.access_log_every = config.access_log_every.max(1),
            "--access-log-every" => {
                config.access_log_every =
                    parse_num(value("--access-log-every")?, "--access-log-every")?
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let library = library.ok_or_else(|| format!("missing required --library\n{USAGE}"))?;
    config.library_path = Some(PathBuf::from(library));
    Ok(config)
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} expects a number, got '{raw}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_full_flag_set() {
        let cfg = parse_args(&args(&[
            "--library",
            "x.jsonl",
            "--addr",
            "0.0.0.0",
            "--port",
            "9000",
            "--workers",
            "3",
            "--queue-depth",
            "17",
            "--deadline-ms",
            "250",
            "--idle-ms",
            "750",
            "--no-trace",
            "--trace-sample-every",
            "16",
            "--access-log-every",
            "32",
        ]))
        .unwrap();
        assert_eq!(cfg.library_path, Some(PathBuf::from("x.jsonl")));
        assert_eq!(cfg.addr, "0.0.0.0");
        assert_eq!(cfg.port, 9000);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 17);
        assert_eq!(cfg.deadline, Duration::from_millis(250));
        assert_eq!(cfg.idle_timeout, Duration::from_millis(750));
        assert!(!cfg.trace_enabled);
        assert_eq!(cfg.trace_sample_every, 16);
        assert_eq!(cfg.access_log_every, 32);
    }

    #[test]
    fn parses_the_live_mutation_flags() {
        let cfg = parse_args(&args(&[
            "--library",
            "x.jsonl",
            "--admin-deadline-ms",
            "30000",
            "--append-max-entries",
            "64",
            "--watch",
            "--compact-threshold",
            "256",
            "--compact-max-age-ms",
            "5000",
        ]))
        .unwrap();
        assert_eq!(cfg.admin_deadline, Duration::from_millis(30_000));
        assert_eq!(cfg.append_max_entries, 64);
        assert!(cfg.watch);
        assert_eq!(cfg.compact_threshold, 256);
        assert_eq!(cfg.compact_max_age, Duration::from_millis(5_000));
    }

    #[test]
    fn live_mutation_flags_default_off() {
        let cfg = parse_args(&args(&["--library", "x.jsonl"])).unwrap();
        assert!(!cfg.watch);
        assert!(cfg.admin_deadline >= cfg.deadline);
        assert!(cfg.append_max_entries > 0);
        assert!(parse_args(&args(&["--library", "x", "--compact-threshold", "many"])).is_err());
    }

    #[test]
    fn defaults_trace_on_and_access_log_off() {
        let cfg = parse_args(&args(&["--library", "x.jsonl"])).unwrap();
        assert!(cfg.trace_enabled);
        assert_eq!(cfg.access_log_every, 0);
        let cfg = parse_args(&args(&["--library", "x.jsonl", "--access-log"])).unwrap();
        assert_eq!(cfg.access_log_every, 1);
    }

    #[test]
    fn rejects_missing_library_and_bad_numbers() {
        assert!(parse_args(&args(&["--port", "1"])).is_err());
        assert!(parse_args(&args(&["--library", "x", "--port", "hi"])).is_err());
        assert!(parse_args(&args(&["--library", "x", "--bogus"])).is_err());
        assert!(parse_args(&args(&["--library"])).is_err());
    }
}
