//! One typed configuration for every OROCHI knob.
//!
//! Historically each knob lived in its own `OROCHI_*` environment
//! variable with a hand-rolled reader, and each bench binary grew its
//! own flag parsing. [`Config`] consolidates them: a plain struct with
//! typed fields, loaded from the environment ([`Config::from_env`]),
//! merged with command-line flags ([`Config::apply_cli`] — CLI wins
//! over environment), and exportable back to the environment
//! ([`Config::export_env`]) so code that still reads the variables
//! (workload generators, the serving front-end defaults) sees the same
//! configuration. The environment names remain the compatibility
//! layer.
//!
//! | Field | Variable | Flag | Default |
//! |---|---|---|---|
//! | `serve_threads` | `OROCHI_SERVE_THREADS` | `--serve-threads` | 4 |
//! | `serve_queue` | `OROCHI_SERVE_QUEUE` | `--queue-depth` | unbounded |
//! | `audit_threads` | `OROCHI_AUDIT_THREADS` | `--audit-threads` | auto |
//! | `vm_engine` | `OROCHI_VM_ENGINE` | `--engine` | register |
//! | `skew` | `OROCHI_WORKLOAD_SKEW` | `--skew`, `--session-len` | per-workload |
//! | `full` | `OROCHI_FULL` | `--full` | CI scale |
//! | `bench_json` | `OROCHI_BENCH_JSON` | `--bench-json` | off |
//! | `store_dir` | `OROCHI_STORE_DIR` | `--store-dir` | in-RAM audit |
//! | `segment_bytes` | `OROCHI_SEGMENT_BYTES` | `--segment-bytes` | 1 MiB |
//! | `epoch_events` | `OROCHI_EPOCH_EVENTS` | `--epoch-events` | 0 (batch) |
//! | `obs` | `OROCHI_OBS` | `--obs` | off |
//! | `obs_out` | `OROCHI_OBS_OUT` | `--obs-out` | no export |
//! | `campaigns` | `OROCHI_CAMPAIGNS` | `--campaigns` | bin-sized |
//! | `campaign_k` | `OROCHI_CAMPAIGN_K` | `--campaign-k` | 0 (cycle 1–3) |
//! | `campaign_seed` | `OROCHI_CAMPAIGN_SEED` | `--campaign-seed` | 0xC0FFEE |

use crate::driver::{
    resolve_audit_threads, resolve_serve_threads, vm_engine_from_env, AuditOptions, ServeOptions,
};
use orochi_accphp::executor::VmEngine;
use orochi_trace::DEFAULT_SEGMENT_BYTES;
use orochi_workload::skew::Skew;
use std::path::PathBuf;

/// A thread-count knob: explicit, or "whatever the machine has".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    /// Use the available parallelism.
    Auto,
    /// An explicit count (`0` also means auto at resolution time).
    Exact(usize),
}

impl Threads {
    fn parse(label: &str, v: &str) -> Threads {
        if v.eq_ignore_ascii_case("auto") || v.is_empty() {
            Threads::Auto
        } else {
            Threads::Exact(
                v.parse::<usize>()
                    .unwrap_or_else(|_| panic!("{label} must be a number or 'auto', got {v:?}")),
            )
        }
    }

    fn parse_flag(bin: &str, flag: &str, v: &str) -> Threads {
        if v.eq_ignore_ascii_case("auto") {
            Threads::Auto
        } else {
            Threads::Exact(
                v.parse::<usize>()
                    .unwrap_or_else(|_| panic!("{bin}: {flag} needs a count or auto")),
            )
        }
    }

    fn env_value(&self) -> String {
        match self {
            Threads::Auto => "auto".to_string(),
            Threads::Exact(n) => n.to_string(),
        }
    }
}

/// The consolidated knob set. Fields are public; construct with
/// [`Config::default`], [`Config::from_env`], or either followed by
/// [`Config::apply_cli`].
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Serving front-end worker threads.
    pub serve_threads: Threads,
    /// Admission-queue depth; `0` = unbounded.
    pub serve_queue: usize,
    /// Audit re-execution worker threads.
    pub audit_threads: Threads,
    /// PHP bytecode engine for re-execution.
    pub vm_engine: VmEngine,
    /// Workload skew override (Zipf theta, session length).
    pub skew: Skew,
    /// Paper-scale workloads instead of the CI-friendly fraction.
    pub full: bool,
    /// Where bench binaries write their JSON row; `None` = don't.
    pub bench_json: Option<String>,
    /// Directory for the segmented trace store; `None` = audit in RAM.
    pub store_dir: Option<PathBuf>,
    /// Segment size budget for trace spilling.
    pub segment_bytes: usize,
    /// Epoch budget for the streaming audit, in trace events; `0`
    /// means batch (the whole trace as one epoch).
    pub epoch_events: usize,
    /// Enable the clock-bearing telemetry layer (spans, event journal,
    /// admission-wait timestamps). Implied by `obs_out`.
    pub obs: bool,
    /// Export prefix for telemetry artifacts: `<prefix>.metrics.json`,
    /// `<prefix>.prom`, `<prefix>.trace.json`; `None` = no export.
    pub obs_out: Option<PathBuf>,
    /// Number of mutated campaign runs for the adversarial campaign
    /// bench; `0` means the binary picks its own smoke/full sizing.
    pub campaigns: usize,
    /// Mutation sites per campaign; `0` cycles k through 1–3.
    pub campaign_k: usize,
    /// Base seed for the campaign's mutation plans.
    pub campaign_seed: u64,
    /// Server randomness seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            serve_threads: Threads::Exact(4),
            serve_queue: 0,
            audit_threads: Threads::Auto,
            vm_engine: VmEngine::Register,
            skew: Skew::default(),
            full: false,
            bench_json: None,
            store_dir: None,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            epoch_events: 0,
            obs: false,
            obs_out: None,
            campaigns: 0,
            campaign_k: 0,
            campaign_seed: 0xC0FFEE,
            seed: 42,
        }
    }
}

fn parse_u64_maybe_hex(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse::<u64>().ok(),
    }
}

fn env_nonempty(name: &str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) if !v.is_empty() => Some(v),
        _ => None,
    }
}

impl Config {
    /// Loads every knob from its `OROCHI_*` variable.
    ///
    /// # Panics
    ///
    /// Panics on malformed values — a silently ignored knob would
    /// corrupt an experiment.
    pub fn from_env() -> Config {
        let defaults = Config::default();
        Config {
            serve_threads: match std::env::var("OROCHI_SERVE_THREADS") {
                Ok(v) => Threads::parse("OROCHI_SERVE_THREADS", &v),
                Err(_) => defaults.serve_threads,
            },
            serve_queue: match env_nonempty("OROCHI_SERVE_QUEUE") {
                Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
                    panic!("OROCHI_SERVE_QUEUE must be a queue depth, got {v:?}")
                }),
                None => defaults.serve_queue,
            },
            audit_threads: match std::env::var("OROCHI_AUDIT_THREADS") {
                Ok(v) => Threads::parse("OROCHI_AUDIT_THREADS", &v),
                Err(_) => defaults.audit_threads,
            },
            vm_engine: vm_engine_from_env(),
            skew: orochi_workload::skew::from_env(),
            full: matches!(std::env::var("OROCHI_FULL"),
                           Ok(v) if v == "1" || v.eq_ignore_ascii_case("true")),
            bench_json: env_nonempty("OROCHI_BENCH_JSON"),
            store_dir: env_nonempty("OROCHI_STORE_DIR").map(PathBuf::from),
            segment_bytes: match env_nonempty("OROCHI_SEGMENT_BYTES") {
                Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
                    panic!("OROCHI_SEGMENT_BYTES must be a byte count, got {v:?}")
                }),
                None => defaults.segment_bytes,
            },
            epoch_events: match env_nonempty("OROCHI_EPOCH_EVENTS") {
                Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
                    panic!("OROCHI_EPOCH_EVENTS must be an event count, got {v:?}")
                }),
                None => defaults.epoch_events,
            },
            obs: matches!(std::env::var("OROCHI_OBS"),
                          Ok(v) if v == "1" || v.eq_ignore_ascii_case("true")),
            obs_out: env_nonempty("OROCHI_OBS_OUT").map(PathBuf::from),
            campaigns: match env_nonempty("OROCHI_CAMPAIGNS") {
                Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
                    panic!("OROCHI_CAMPAIGNS must be a campaign count, got {v:?}")
                }),
                None => defaults.campaigns,
            },
            campaign_k: match env_nonempty("OROCHI_CAMPAIGN_K") {
                Some(v) => v.parse::<usize>().unwrap_or_else(|_| {
                    panic!("OROCHI_CAMPAIGN_K must be a site count, got {v:?}")
                }),
                None => defaults.campaign_k,
            },
            campaign_seed: match env_nonempty("OROCHI_CAMPAIGN_SEED") {
                Some(v) => parse_u64_maybe_hex(&v).unwrap_or_else(|| {
                    panic!("OROCHI_CAMPAIGN_SEED must be a seed (decimal or 0x hex), got {v:?}")
                }),
                None => defaults.campaign_seed,
            },
            seed: defaults.seed,
        }
    }

    /// Merges command-line flags into `self` (CLI wins over whatever
    /// the config currently holds). Unknown arguments panic with a
    /// usage message naming `bin`.
    ///
    /// # Panics
    ///
    /// Panics on unknown flags, missing values, or malformed values.
    pub fn apply_cli(&mut self, bin: &str, args: impl Iterator<Item = String>) {
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value_of = |flag: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{bin}: {flag} needs a value"))
            };
            match arg.as_str() {
                "--skew" => {
                    let v = value_of("--skew");
                    let parsed =
                        Skew::parse(&v).unwrap_or_else(|e| panic!("{bin}: invalid skew: {e}"));
                    if parsed.theta.is_some() {
                        self.skew.theta = parsed.theta;
                    }
                    if parsed.session_len.is_some() {
                        self.skew.session_len = parsed.session_len;
                    }
                }
                "--session-len" => {
                    let v = value_of("--session-len");
                    let parsed = Skew::parse(&format!(",{v}"))
                        .unwrap_or_else(|e| panic!("{bin}: invalid skew: {e}"));
                    self.skew.session_len = parsed.session_len;
                }
                "--serve-threads" => {
                    self.serve_threads =
                        Threads::parse_flag(bin, "--serve-threads", &value_of("--serve-threads"));
                }
                "--queue-depth" => {
                    let v = value_of("--queue-depth");
                    self.serve_queue = v
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("{bin}: --queue-depth needs a number"));
                }
                "--audit-threads" => {
                    self.audit_threads =
                        Threads::parse_flag(bin, "--audit-threads", &value_of("--audit-threads"));
                }
                "--engine" => {
                    let v = value_of("--engine");
                    self.vm_engine = if v.eq_ignore_ascii_case("stack") {
                        VmEngine::Stack
                    } else if v.eq_ignore_ascii_case("register") {
                        VmEngine::Register
                    } else {
                        panic!("{bin}: --engine must be 'register' or 'stack', got {v:?}")
                    };
                }
                "--full" => self.full = true,
                "--bench-json" => self.bench_json = Some(value_of("--bench-json")),
                "--store-dir" => {
                    self.store_dir = Some(PathBuf::from(value_of("--store-dir")));
                }
                "--segment-bytes" => {
                    let v = value_of("--segment-bytes");
                    self.segment_bytes = v
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("{bin}: --segment-bytes needs a byte count"));
                }
                "--epoch-events" => {
                    let v = value_of("--epoch-events");
                    self.epoch_events = v
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("{bin}: --epoch-events needs an event count"));
                }
                "--obs" => self.obs = true,
                "--obs-out" => {
                    self.obs_out = Some(PathBuf::from(value_of("--obs-out")));
                }
                "--campaigns" => {
                    let v = value_of("--campaigns");
                    self.campaigns = v
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("{bin}: --campaigns needs a count"));
                }
                "--campaign-k" => {
                    let v = value_of("--campaign-k");
                    self.campaign_k = v
                        .parse::<usize>()
                        .unwrap_or_else(|_| panic!("{bin}: --campaign-k needs a site count"));
                }
                "--campaign-seed" => {
                    let v = value_of("--campaign-seed");
                    self.campaign_seed = parse_u64_maybe_hex(&v).unwrap_or_else(|| {
                        panic!("{bin}: --campaign-seed needs a seed (decimal or 0x hex)")
                    });
                }
                other => panic!(
                    "{bin}: unknown argument {other:?} \
                     (supported: --skew <theta[,session_len]>, --session-len <len>, \
                     --serve-threads <n|auto>, --queue-depth <n>, \
                     --audit-threads <n|auto>, --engine <register|stack>, --full, \
                     --bench-json <path>, --store-dir <path>, --segment-bytes <n>, \
                     --epoch-events <n>, --obs, --obs-out <prefix>, \
                     --campaigns <n>, --campaign-k <k>, --campaign-seed <seed>)"
                ),
            }
        }
    }

    /// Writes every knob back to its `OROCHI_*` variable so legacy
    /// readers (workload generators, `ServeOptions::default`) observe
    /// this configuration.
    pub fn export_env(&self) {
        std::env::set_var("OROCHI_SERVE_THREADS", self.serve_threads.env_value());
        std::env::set_var("OROCHI_SERVE_QUEUE", self.serve_queue.to_string());
        std::env::set_var("OROCHI_AUDIT_THREADS", self.audit_threads.env_value());
        std::env::set_var(
            "OROCHI_VM_ENGINE",
            match self.vm_engine {
                VmEngine::Register => "register",
                VmEngine::Stack => "stack",
            },
        );
        match self.skew_env_value() {
            Some(v) => std::env::set_var("OROCHI_WORKLOAD_SKEW", v),
            None => std::env::remove_var("OROCHI_WORKLOAD_SKEW"),
        }
        std::env::set_var("OROCHI_FULL", if self.full { "1" } else { "0" });
        match &self.bench_json {
            Some(path) => std::env::set_var("OROCHI_BENCH_JSON", path),
            None => std::env::remove_var("OROCHI_BENCH_JSON"),
        }
        match &self.store_dir {
            Some(dir) => std::env::set_var("OROCHI_STORE_DIR", dir),
            None => std::env::remove_var("OROCHI_STORE_DIR"),
        }
        std::env::set_var("OROCHI_SEGMENT_BYTES", self.segment_bytes.to_string());
        std::env::set_var("OROCHI_EPOCH_EVENTS", self.epoch_events.to_string());
        let obs_on = self.obs_enabled();
        std::env::set_var("OROCHI_OBS", if obs_on { "1" } else { "0" });
        match &self.obs_out {
            Some(prefix) => std::env::set_var("OROCHI_OBS_OUT", prefix),
            None => std::env::remove_var("OROCHI_OBS_OUT"),
        }
        std::env::set_var("OROCHI_CAMPAIGNS", self.campaigns.to_string());
        std::env::set_var("OROCHI_CAMPAIGN_K", self.campaign_k.to_string());
        std::env::set_var("OROCHI_CAMPAIGN_SEED", self.campaign_seed.to_string());
        // The telemetry layer caches its enabled flag; push the decision
        // through so code that already resolved it observes this config.
        orochi_obs::set_enabled(obs_on);
    }

    /// Whether the clock-bearing telemetry layer should be on: asked
    /// for explicitly (`--obs`), or implied by an export destination.
    pub fn obs_enabled(&self) -> bool {
        self.obs || self.obs_out.is_some()
    }

    /// The skew knob in its `OROCHI_WORKLOAD_SKEW` syntax, or `None`
    /// when nothing is overridden.
    fn skew_env_value(&self) -> Option<String> {
        match (self.skew.theta, self.skew.session_len) {
            (None, None) => None,
            (Some(t), None) => Some(format!("{t}")),
            (None, Some(l)) => Some(format!(",{l}")),
            (Some(t), Some(l)) => Some(format!("{t},{l}")),
        }
    }

    /// Workload scale matching [`crate::experiments::scale_from_env`].
    pub fn scale(&self) -> f64 {
        if self.full {
            1.0
        } else {
            0.05
        }
    }

    /// Resolved serving worker count.
    pub fn resolved_serve_threads(&self) -> usize {
        match self.serve_threads {
            Threads::Auto => resolve_serve_threads(0),
            Threads::Exact(n) => resolve_serve_threads(n),
        }
    }

    /// Resolved (hardware-clamped) audit worker count.
    pub fn resolved_audit_threads(&self) -> usize {
        match self.audit_threads {
            Threads::Auto => resolve_audit_threads(0),
            Threads::Exact(n) => resolve_audit_threads(n),
        }
    }

    /// Serving options carrying this configuration.
    pub fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            threads: self.resolved_serve_threads(),
            queue_depth: self.serve_queue,
            recording: true,
            seed: self.seed,
        }
    }

    /// Audit options carrying this configuration (grouped re-execution
    /// and query dedup on, as everywhere outside the ablations).
    pub fn audit_options(&self) -> AuditOptions {
        AuditOptions {
            grouped: true,
            dedup: true,
            threads: self.resolved_audit_threads(),
            engine: self.vm_engine,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn defaults_match_legacy_readers() {
        let c = Config::default();
        assert_eq!(c.serve_threads, Threads::Exact(4));
        assert_eq!(c.serve_queue, 0);
        assert_eq!(c.audit_threads, Threads::Auto);
        assert_eq!(c.vm_engine, VmEngine::Register);
        assert_eq!(c.segment_bytes, DEFAULT_SEGMENT_BYTES);
        assert_eq!(c.epoch_events, 0, "batch by default");
        assert!(!c.full);
        assert!(c.bench_json.is_none() && c.store_dir.is_none());
    }

    #[test]
    fn cli_merges_over_defaults() {
        let mut c = Config::default();
        c.apply_cli(
            "t",
            args(&[
                "--skew",
                "0.8",
                "--session-len",
                "4",
                "--serve-threads",
                "8",
                "--queue-depth",
                "64",
                "--audit-threads",
                "auto",
                "--engine",
                "stack",
                "--full",
                "--bench-json",
                "/tmp/out.json",
                "--store-dir",
                "/tmp/store",
                "--segment-bytes",
                "65536",
                "--epoch-events",
                "512",
            ]),
        );
        assert_eq!(c.skew.theta, Some(0.8));
        assert_eq!(c.skew.session_len, Some(4.0));
        assert_eq!(c.serve_threads, Threads::Exact(8));
        assert_eq!(c.serve_queue, 64);
        assert_eq!(c.audit_threads, Threads::Auto);
        assert_eq!(c.vm_engine, VmEngine::Stack);
        assert!(c.full);
        assert_eq!(c.bench_json.as_deref(), Some("/tmp/out.json"));
        assert_eq!(c.store_dir, Some(PathBuf::from("/tmp/store")));
        assert_eq!(c.segment_bytes, 65536);
        assert_eq!(c.epoch_events, 512);
        assert_eq!(c.scale(), 1.0);
    }

    #[test]
    fn session_len_overrides_embedded_skew_part() {
        let mut c = Config::default();
        c.apply_cli("t", args(&["--skew", "1.1,9", "--session-len", "2"]));
        assert_eq!(c.skew.theta, Some(1.1));
        assert_eq!(c.skew.session_len, Some(2.0));
        assert_eq!(c.skew_env_value().as_deref(), Some("1.1,2"));
        let mut only_len = Config::default();
        only_len.apply_cli("t", args(&["--session-len", "2"]));
        assert_eq!(only_len.skew_env_value().as_deref(), Some(",2"));
        assert_eq!(Config::default().skew_env_value(), None);
    }

    #[test]
    fn obs_knobs_parse_and_imply() {
        let mut c = Config::default();
        assert!(!c.obs_enabled());
        c.apply_cli("t", args(&["--obs"]));
        assert!(c.obs && c.obs_enabled());
        let mut c = Config::default();
        c.apply_cli("t", args(&["--obs-out", "/tmp/obs_run"]));
        assert!(!c.obs, "--obs-out alone leaves the flag false");
        assert!(c.obs_enabled(), "but implies the layer is on");
        assert_eq!(c.obs_out, Some(PathBuf::from("/tmp/obs_run")));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flags_panic() {
        Config::default().apply_cli("t", args(&["--frobnicate"]));
    }

    #[test]
    fn campaign_knobs_parse() {
        let c = Config::default();
        assert_eq!(c.campaigns, 0, "bin picks its own sizing by default");
        assert_eq!(c.campaign_k, 0, "k cycles 1-3 by default");
        assert_eq!(c.campaign_seed, 0xC0FFEE);
        let mut c = Config::default();
        c.apply_cli(
            "t",
            args(&[
                "--campaigns",
                "500",
                "--campaign-k",
                "2",
                "--campaign-seed",
                "0xDEAD",
            ]),
        );
        assert_eq!(c.campaigns, 500);
        assert_eq!(c.campaign_k, 2);
        assert_eq!(c.campaign_seed, 0xDEAD);
        let mut c = Config::default();
        c.apply_cli("t", args(&["--campaign-seed", "97"]));
        assert_eq!(c.campaign_seed, 97, "decimal seeds parse too");
    }

    #[test]
    fn options_carry_the_config() {
        let mut c = Config::default();
        c.apply_cli("t", args(&["--serve-threads", "3", "--audit-threads", "1"]));
        let serve = c.serve_options();
        assert_eq!(serve.threads, 3);
        assert_eq!(serve.queue_depth, 0);
        let audit = c.audit_options();
        assert_eq!(audit.threads, 1);
        assert!(audit.grouped && audit.dedup);
    }
}
