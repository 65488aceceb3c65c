//! Service tuning knobs.
//!
//! [`ServerConfig`] keeps public fields (struct-literal construction still
//! works for internal code), but the supported way to build one is the
//! validating [`ServerConfig::builder`]: it rejects configurations that
//! would wedge the service at startup — zero shards, a zero wait depth
//! that sheds every call, a session cap of zero, or a zero timeout that
//! turns every logged commit into an instant `Timeout`.

use crate::durability::Durability;
use crate::error::ServerError;
use ks_obs::Recorder;
use ks_predicate::Strategy;
use ks_protocol::Backend;
use std::fmt;
use std::time::Duration;

/// Configuration for a [`TxnService`](crate::TxnService).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of entity shards, each a worker owning its own protocol
    /// manager behind one lock. Clamped to `[1, |E|]` at startup.
    pub shards: usize,
    /// How many calls may wait for one shard's lock; a call arriving
    /// when this many already wait is shed with
    /// [`ServerError::Backpressure`](crate::ServerError).
    pub queue_depth: usize,
    /// Maximum concurrently open sessions; further `session()` calls are
    /// shed with `Backpressure`.
    pub max_sessions: usize,
    /// How long a logged commit waits on another committer's WAL flush
    /// before reporting `Timeout` (a commit leading its own flush waits
    /// for its write and sync, not for this).
    pub request_timeout: Duration,
    /// Version-assignment solver strategy used at validation (overridable
    /// per transaction via
    /// [`TxnBuilder::strategy`](crate::TxnBuilder::strategy)).
    pub strategy: Strategy,
    /// Flight recorder for structured decision tracing. When set, every
    /// shard gets an [`ObsSink`](ks_obs::ObsSink) and
    /// the service records request lifecycle + protocol decision events
    /// into the recorder's rings (see `ks-obs`); `None` disables
    /// instrumentation entirely.
    pub recorder: Option<Recorder>,
    /// Crash durability. [`Durability::Wal`] makes the commit path
    /// log-then-flush through a write-ahead log and replays it at
    /// startup; the default [`Durability::None`] keeps the pre-WAL
    /// in-memory behaviour.
    pub durability: Durability,
    /// Fraction of requests the service *originates* distributed traces
    /// for (`0.0` = never, the default; `1.0` = every request). Only
    /// applies to requests that did not already arrive with a wire
    /// trace id — those are always honoured — and only when a
    /// `recorder` is attached. See `ks_obs::trace`.
    pub trace_sample: f64,
    /// Which certification backend every shard runs: the paper's
    /// CPC protocol (the default), SSI, or strict 2PL. Advertised to
    /// remote clients in the wire handshake; clients may pin an
    /// expectation per transaction
    /// ([`TxnBuilder::backend`](crate::TxnBuilder::backend)), which fails closed with
    /// [`ServerError::BackendMismatch`](crate::ServerError) on disagreement.
    pub backend: Backend,
    /// SSI dangerous-structure detection (`true`, the default). Turning
    /// it off degrades [`Backend::Ssi`] to plain snapshot isolation,
    /// which admits write skew — a **test-only** knob that exists so the
    /// offline history checker can be proven to catch a broken detector
    /// (the `exp_certifier --teeth` gate). Ignored by other backends.
    pub ssi_detect: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_depth: 128,
            max_sessions: 64,
            request_timeout: Duration::from_secs(10),
            strategy: Strategy::Backtracking,
            recorder: None,
            durability: Durability::None,
            trace_sample: 0.0,
            backend: Backend::Cpc,
            ssi_detect: true,
        }
    }
}

impl ServerConfig {
    /// Start a validating builder seeded with the defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// A [`ServerConfig`] that failed validation; explains which knob is
/// unusable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid server config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for ServerError {
    fn from(e: ConfigError) -> Self {
        ServerError::Rejected(e.to_string())
    }
}

/// Builder for [`ServerConfig`] whose [`build`](ServerConfigBuilder::build)
/// rejects degenerate settings instead of starting a service that can
/// never make progress.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Number of entity shards (must be ≥ 1; still clamped to `|E|` at
    /// service startup).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Calls allowed to wait for one shard's lock (must be ≥ 1).
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Admission-control session cap (must be ≥ 1).
    pub fn max_sessions(mut self, cap: usize) -> Self {
        self.config.max_sessions = cap;
        self
    }

    /// How long a logged commit waits on another committer's WAL flush
    /// (must be non-zero).
    pub fn request_timeout(mut self, timeout: Duration) -> Self {
        self.config.request_timeout = timeout;
        self
    }

    /// Default version-assignment strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Attach a flight recorder.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.config.recorder = Some(recorder);
        self
    }

    /// Select crash durability (write-ahead logging or none).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.config.durability = durability;
        self
    }

    /// Trace-origination sampling rate (must be within `[0.0, 1.0]`).
    pub fn trace_sample(mut self, rate: f64) -> Self {
        self.config.trace_sample = rate;
        self
    }

    /// Select the certification backend (CPC / SSI / 2PL).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Toggle SSI dangerous-structure detection (test-only knob; see
    /// [`ServerConfig::ssi_detect`]).
    pub fn ssi_detect(mut self, detect: bool) -> Self {
        self.config.ssi_detect = detect;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        let c = &self.config;
        if c.shards == 0 {
            return Err(ConfigError("shards must be >= 1".into()));
        }
        if c.queue_depth == 0 {
            return Err(ConfigError(
                "queue_depth must be >= 1 (a zero wait depth sheds every call)".into(),
            ));
        }
        if c.max_sessions == 0 {
            return Err(ConfigError(
                "max_sessions must be >= 1 (a zero cap sheds every session)".into(),
            ));
        }
        if c.request_timeout.is_zero() {
            return Err(ConfigError(
                "request_timeout must be non-zero (every logged commit would time out)".into(),
            ));
        }
        if !(0.0..=1.0).contains(&c.trace_sample) {
            return Err(ConfigError("trace_sample must be within [0.0, 1.0]".into()));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let c = ServerConfig::builder().build().unwrap();
        assert_eq!(c.shards, 4);
        assert_eq!(c.queue_depth, 128);
        assert_eq!(c.backend, Backend::Cpc);
        assert!(c.ssi_detect);
    }

    #[test]
    fn builder_rejects_degenerate_knobs() {
        assert!(ServerConfig::builder().shards(0).build().is_err());
        assert!(ServerConfig::builder().queue_depth(0).build().is_err());
        assert!(ServerConfig::builder().max_sessions(0).build().is_err());
        assert!(ServerConfig::builder()
            .request_timeout(Duration::ZERO)
            .build()
            .is_err());
        assert!(ServerConfig::builder().trace_sample(1.5).build().is_err());
        assert!(ServerConfig::builder().trace_sample(-0.1).build().is_err());
        assert!(ServerConfig::builder()
            .trace_sample(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = ServerConfig::builder()
            .shards(2)
            .queue_depth(7)
            .max_sessions(3)
            .request_timeout(Duration::from_millis(250))
            .strategy(Strategy::GreedyLatest)
            .trace_sample(0.25)
            .backend(Backend::Ssi)
            .ssi_detect(false)
            .build()
            .unwrap();
        assert_eq!(c.shards, 2);
        assert_eq!(c.queue_depth, 7);
        assert_eq!(c.max_sessions, 3);
        assert_eq!(c.request_timeout, Duration::from_millis(250));
        assert_eq!(c.strategy, Strategy::GreedyLatest);
        assert_eq!(c.trace_sample, 0.25);
        assert_eq!(c.backend, Backend::Ssi);
        assert!(!c.ssi_detect);
        assert!(c.recorder.is_none());
        assert!(matches!(c.durability, Durability::None));
    }

    #[test]
    fn config_error_converts_to_server_error() {
        let e: ServerError = ConfigError("shards must be >= 1".into()).into();
        assert!(e.to_string().contains("shards"));
        assert!(!e.is_retryable());
    }
}
