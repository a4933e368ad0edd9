//! The four front doors. An op is always *text in → canonical JSON bytes
//! out* through one of them, under the system's default configuration:
//! `EngineConfig::default()`, `ServeConfig { workers, .. }`,
//! `ShardConfig { backends, .. }`, with every `JINJING_*` variable cleared
//! (so engine threads = 1). No engine knob is set here, so the benchmark
//! keeps compiling when the mode matrix shrinks.

use jinjing_core::incr::parse_delta_script;
use jinjing_core::{
    open_intent_session, recheck_steps, run_query, CheckSession, EngineConfig, RunOutput,
    WatchOutput,
};
use jinjing_net::{AclConfig, Network};
use jinjing_serve::client::{self, Conn};
use jinjing_serve::{ServeConfig, ServeSummary, Server};
use jinjing_shard::{CoordSummary, Coordinator, ShardConfig};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-call socket timeout for every HTTP client the harness opens.
pub const HTTP_TIMEOUT: Duration = Duration::from_secs(30);

/// The `query` door up to the engine's output (plan document + collector).
pub fn run(net: &Network, config: &AclConfig, intent: &str) -> Result<RunOutput, String> {
    run_query(net, config, intent, &EngineConfig::default()).map_err(|e| e.to_string())
}

/// The `query` door: the body of `jinjing run --format json`.
pub fn query(net: &Network, config: &AclConfig, intent: &str) -> Result<Vec<u8>, String> {
    run(net, config, intent).map(|out| out.plan.to_canonical_json().into_bytes())
}

/// A resident check session plus what the watch renderer needs.
pub struct Session<'n> {
    pub net: &'n Network,
    pub session: CheckSession<'n>,
    pub class_count: usize,
}

impl<'n> Session<'n> {
    /// `POST /v1/sessions`, in process.
    pub fn open(net: &'n Network, config: &AclConfig, intent: &str) -> Result<Session<'n>, String> {
        let session = open_intent_session(net, config, intent, &EngineConfig::default())
            .map_err(|e| e.to_string())?;
        let class_count = session.class_count();
        Ok(Session {
            net,
            session,
            class_count,
        })
    }

    /// The `session` door: the body of `POST /v1/sessions/{id}/delta`.
    pub fn delta(&mut self, script: &str) -> Result<Vec<u8>, String> {
        let deltas = parse_delta_script(self.net, script).map_err(|e| e.to_string())?;
        let steps = recheck_steps(&mut self.session, &deltas).map_err(|e| e.to_string())?;
        let out = WatchOutput::from_steps(
            self.class_count,
            deltas.len(),
            steps,
            self.session.config().obs.snapshot(),
        );
        Ok(out.to_canonical_json().into_bytes())
    }
}

/// An in-process `jinjing-serve` daemon on an ephemeral loopback port.
pub struct Daemon {
    pub addr: String,
    handle: JoinHandle<Result<ServeSummary, String>>,
}

impl Daemon {
    pub fn start(net: Network, config: AclConfig, workers: usize) -> Result<Daemon, String> {
        let cfg = ServeConfig {
            workers,
            ..ServeConfig::default()
        };
        let server = Server::bind(net, config, cfg).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = std::thread::spawn(move || server.run().map_err(|e| e.to_string()));
        Ok(Daemon { addr, handle })
    }

    /// Drain the daemon and wait for its threads.
    pub fn stop(self) -> Result<ServeSummary, String> {
        shutdown(&self.addr)?;
        self.handle
            .join()
            .map_err(|_| "serve thread panicked".to_string())?
    }
}

/// An in-process `jinjing-shard` coordinator in front of its backends.
pub struct Fanout {
    pub addr: String,
    handle: JoinHandle<Result<CoordSummary, String>>,
    pub backends: Vec<Daemon>,
}

impl Fanout {
    /// One coordinator and `nets.len() - 1` backends; `nets[0]` becomes the
    /// coordinator's resident network.
    pub fn start(mut nets: Vec<Network>, config: &AclConfig) -> Result<Fanout, String> {
        let coord_net = nets.remove(0);
        let mut backends = Vec::new();
        for net in nets {
            backends.push(Daemon::start(net, config.clone(), 1)?);
        }
        let cfg = ShardConfig {
            backends: backends.iter().map(|b| b.addr.clone()).collect(),
            ..ShardConfig::default()
        };
        let coord = Coordinator::bind(coord_net, config.clone(), cfg).map_err(|e| e.to_string())?;
        let addr = coord.local_addr().map_err(|e| e.to_string())?.to_string();
        let handle = std::thread::spawn(move || coord.run().map_err(|e| e.to_string()));
        Ok(Fanout {
            addr,
            handle,
            backends,
        })
    }

    pub fn stop(self) -> Result<(CoordSummary, Vec<ServeSummary>), String> {
        shutdown(&self.addr)?;
        let coord = self
            .handle
            .join()
            .map_err(|_| "coordinator thread panicked".to_string())??;
        let mut summaries = Vec::new();
        for b in self.backends {
            summaries.push(b.stop()?);
        }
        Ok((coord, summaries))
    }
}

fn shutdown(addr: &str) -> Result<(), String> {
    let r = client::call(addr, "POST", "/v1/shutdown", &[], b"", HTTP_TIMEOUT)?;
    if r.status == 200 {
        Ok(())
    } else {
        Err(format!("shutdown of {addr} answered {}", r.status))
    }
}

/// The `serve` and `shard` doors: `POST /v1/check` on a kept-alive
/// connection. Anything but a 200 is a failed op (a 429 is a shed request).
pub fn post_check(conn: &mut Conn, intent: &str) -> Result<Vec<u8>, String> {
    post_check_with(conn, intent, &[])
}

pub fn post_check_with(
    conn: &mut Conn,
    intent: &str,
    headers: &[(String, String)],
) -> Result<Vec<u8>, String> {
    let r = conn.call("POST", "/v1/check", headers, intent.as_bytes())?;
    if r.status == 200 {
        Ok(r.body)
    } else {
        Err(format!(
            "POST /v1/check answered {}: {}",
            r.status,
            r.body_text().trim()
        ))
    }
}

/// One closed-loop caller of a workload.
pub enum Client<'n> {
    Query {
        net: &'n Network,
        config: &'n AclConfig,
    },
    Session(Box<Session<'n>>),
    Http(Conn),
}

impl Client<'_> {
    /// One op: text in, canonical bytes out.
    pub fn call(&mut self, text: &str) -> Result<Vec<u8>, String> {
        match self {
            Client::Query { net, config } => query(net, config, text),
            Client::Session(s) => s.delta(text),
            Client::Http(conn) => post_check(conn, text),
        }
    }
}
