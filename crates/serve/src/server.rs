//! The HTTP front end: accept loop, fixed worker pool, tenant routing, and
//! graceful shutdown.
//!
//! ```text
//! accept thread ──► bounded conn queue ──► worker 0..K ──► shard 0..S
//!      │ (max-connections guard)              │  (bounded request queue
//!      ▼                                      ▼   per shard, micro-batched)
//!   503 when full                 HTTP parse / tenant resolve / respond
//! ```
//!
//! Inference routes take a `?tenant=` query parameter; requests without one
//! address the `default` tenant, so a single-model deployment keeps the old
//! URLs. The registry maps tenants to shards with a deterministic FNV-1a
//! hash (see [`crate::registry::shard_of`]) and handles the model
//! lifecycle: `POST /admin/load` installs or hot-swaps a checkpoint,
//! `POST /admin/unload` drops one, and `GET /admin/tenants` lists the
//! directory.
//!
//! Shutdown is SIGTERM-equivalent without signal handling (std has none):
//! anything holding a [`ShutdownHandle`] — the `/admin/shutdown` route, a
//! stdin-EOF watcher, a test — flips the shutdown flag and wakes the
//! acceptor with a self-connection. The acceptor stops taking connections
//! and drops the queue; workers drain in-flight connections and exit; each
//! shard exits once the last registry clone drops its channel sender, and
//! [`Server::join`] hands back every tenant's forecaster.

use crate::http::{self, HttpError, Request};
use crate::metrics::{Metrics, Route};
use crate::registry::{self, Registry, RegistryConfig, RegistryError, ResolvedTenant};
use crate::shard::{EngineError, ShardRequest, ENGINE_REPLY_TIMEOUT};
use crate::wire;
use rihgcn_core::OnlineForecaster;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenant addressed by requests that carry no `?tenant=` parameter.
pub const DEFAULT_TENANT: &str = "default";

/// Tunables of the HTTP service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8100` (`:0` picks a free port).
    pub addr: String,
    /// Worker threads handling connections. `0` follows the `st-par`
    /// convention: `ST_NUM_THREADS`, else available parallelism.
    pub workers: usize,
    /// Maximum connections queued or in flight before new ones get 503.
    pub max_connections: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Bound of each shard's request queue (backpressure depth).
    pub queue_depth: usize,
    /// Requests served per connection before it is recycled.
    pub max_requests_per_connection: usize,
    /// Engine shards; tenants route to `shard_of(name, shards)`.
    pub shards: usize,
    /// Maximum resident models (0 = unlimited); loading a new tenant at
    /// the cap evicts the least-recently-used one.
    pub max_models: usize,
    /// Maximum distinct windows a shard answers from one batched forecast
    /// run when draining a saturated queue (min 1; 1 disables batching).
    pub max_batch: usize,
    /// How long a shard may hold parked forecasts at queue-empty waiting
    /// to fill a batch (see [`RegistryConfig::batch_linger`]). Zero, the
    /// default, flushes immediately.
    pub batch_linger: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            max_body_bytes: 8 << 20,
            queue_depth: 128,
            max_requests_per_connection: 10_000,
            shards: 1,
            max_models: 0,
            max_batch: 16,
            batch_linger: Duration::ZERO,
        }
    }
}

/// State shared between the acceptor, the workers and shutdown handles.
struct Shared {
    shutdown: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Wake the acceptor out of its blocking accept().
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Clonable handle that triggers graceful shutdown from anywhere.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Requests a graceful shutdown (idempotent): stop accepting, drain
    /// in-flight connections, stop the shards.
    pub fn shutdown(&self) {
        self.0.trigger_shutdown();
    }
}

/// A running forecast service.
pub struct Server {
    shared: Arc<Shared>,
    metrics: Arc<Metrics>,
    registry: Option<Registry>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a single-model service: the forecaster is loaded as the
    /// [`DEFAULT_TENANT`], so requests without `?tenant=` reach it.
    ///
    /// # Errors
    ///
    /// Returns any error binding the address or spawning threads.
    pub fn start(online: OnlineForecaster, cfg: ServeConfig) -> io::Result<Server> {
        Self::start_with_models(vec![(DEFAULT_TENANT.to_string(), online)], cfg)
    }

    /// Binds the listener, spawns the shard and worker threads, loads the
    /// given `(tenant, forecaster)` models, and starts accepting
    /// connections.
    ///
    /// # Errors
    ///
    /// Returns errors binding the address, spawning threads, or loading a
    /// model under an invalid tenant name.
    pub fn start_with_models(
        models: Vec<(String, OnlineForecaster)>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(
            cfg.addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| io::Error::other(format!("unresolvable address {}", cfg.addr)))?,
        )?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            addr,
        });
        let shards = cfg.shards.max(1);
        let metrics = Arc::new(Metrics::with_shards(shards));
        let registry = Registry::new(
            RegistryConfig {
                shards,
                max_models: cfg.max_models,
                queue_depth: cfg.queue_depth,
                max_batch: cfg.max_batch,
                batch_linger: cfg.batch_linger,
            },
            Arc::clone(&metrics),
        );
        for (tenant, online) in models {
            registry
                .load(&tenant, online)
                .map_err(|e| io::Error::other(e.to_string()))?;
        }

        let workers_n = if cfg.workers > 0 {
            cfg.workers
        } else {
            st_par::num_threads()
        };
        let active = Arc::new(AtomicUsize::new(0));
        let (conn_tx, conn_rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            std::sync::mpsc::sync_channel(cfg.max_connections.max(1));
        let conn_rx = Arc::new(Mutex::new(conn_rx));

        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let conn_rx = Arc::clone(&conn_rx);
            let registry = registry.clone();
            let metrics = Arc::clone(&metrics);
            let shared = Arc::clone(&shared);
            let active = Arc::clone(&active);
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("st-serve-worker-{i}"))
                    .spawn(move || loop {
                        // Take one connection, then release the lock before
                        // serving it so the other workers keep draining.
                        let stream = conn_rx.lock().expect("conn queue lock").recv();
                        let Ok(stream) = stream else { break };
                        serve_connection(stream, &registry, &metrics, &shared, &cfg);
                        active.fetch_sub(1, Ordering::SeqCst);
                    })?,
            );
        }

        let accept = {
            let shared = Arc::clone(&shared);
            let metrics = Arc::clone(&metrics);
            let max_connections = cfg.max_connections;
            std::thread::Builder::new()
                .name("st-serve-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shared.is_shutting_down() {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        if active.load(Ordering::SeqCst) >= max_connections {
                            metrics.reject_connection();
                            let _ = http::write_response(
                                &mut &stream,
                                503,
                                "connection limit reached\n",
                                false,
                            );
                            continue;
                        }
                        active.fetch_add(1, Ordering::SeqCst);
                        if conn_tx.send(stream).is_err() {
                            break;
                        }
                    }
                    // Dropping conn_tx here releases the workers.
                })?
        };

        Ok(Server {
            shared,
            metrics,
            registry: Some(registry),
            accept: Some(accept),
            workers,
        })
    }

    /// The address the listener is bound to (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live service counters.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// A handle to the model registry (tenant directory, load/unload).
    /// Drop it before calling [`Server::join`] — the shards only exit once
    /// every registry clone is gone.
    pub fn registry(&self) -> Registry {
        self.registry.as_ref().expect("server is running").clone()
    }

    /// Number of model evaluations performed so far (cache misses).
    pub fn tape_runs(&self) -> u64 {
        self.metrics.total_tape_runs()
    }

    /// A handle that can trigger graceful shutdown from another thread or
    /// from the `/admin/shutdown` route.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// Blocks until a shutdown is triggered (by a [`ShutdownHandle`] or the
    /// `/admin/shutdown` route), drains connections, and joins every
    /// thread. Returns each resident tenant's forecaster with its final
    /// window state, sorted by tenant name.
    pub fn join(mut self) -> Vec<(String, OnlineForecaster)> {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let registry = self.registry.take().expect("join consumes the server once");
        let joins = registry.take_joins();
        // The last sender clones live in the registry; dropping it lets
        // every shard drain its queue and exit.
        drop(registry);
        let mut drained = Vec::new();
        for join in joins {
            drained.extend(join.join().expect("shard thread must not panic"));
        }
        drained.sort_by(|a, b| a.0.cmp(&b.0));
        drained
    }

    /// Triggers shutdown and joins; see [`Server::join`].
    pub fn shutdown(self) -> Vec<(String, OnlineForecaster)> {
        self.shared.trigger_shutdown();
        self.join()
    }
}

/// Serves one (possibly keep-alive) connection to completion.
fn serve_connection(
    stream: TcpStream,
    registry: &Registry,
    metrics: &Metrics,
    shared: &Shared,
    cfg: &ServeConfig,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);

    for served in 1..=cfg.max_requests_per_connection {
        let req = match http::read_request(&mut reader, cfg.max_body_bytes) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            Err(e) if e.is_timeout() => {
                let _ = http::write_response(&mut writer, 408, "request timed out\n", false);
                break;
            }
            Err(HttpError::BodyTooLarge(_)) => {
                metrics.record(Route::Other, 0, true);
                let _ = http::write_response(&mut writer, 413, "request body too large\n", false);
                break;
            }
            Err(HttpError::Malformed(msg)) => {
                metrics.record(Route::Other, 0, true);
                let _ = http::write_response(&mut writer, 400, &format!("{msg}\n"), false);
                break;
            }
            Err(HttpError::Io(_)) => break,
        };

        let started = Instant::now();
        let outcome = route(&req, registry);
        let latency_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        metrics.record(outcome.route, latency_us, outcome.status >= 400);

        // The last response a connection may carry announces the close
        // the loop is about to make.
        let keep_alive = served < cfg.max_requests_per_connection
            && !req.wants_close()
            && !outcome.shutdown_after
            && !shared.is_shutting_down();
        let mut extra: Vec<(&str, &str)> = Vec::new();
        if let Some(allow) = outcome.allow {
            extra.push(("Allow", allow));
        }
        if http::write_response_with(
            &mut writer,
            outcome.status,
            &outcome.body,
            keep_alive,
            outcome.content_type,
            &extra,
        )
        .is_err()
        {
            break;
        }
        if outcome.shutdown_after {
            shared.trigger_shutdown();
        }
        if !keep_alive {
            break;
        }
    }
}

const TEXT_PLAIN: &str = "text/plain; charset=utf-8";
const APPLICATION_JSON: &str = "application/json";

struct Outcome {
    status: u16,
    body: String,
    route: Route,
    shutdown_after: bool,
    content_type: &'static str,
    allow: Option<&'static str>,
}

impl Outcome {
    fn ok(route: Route, body: String) -> Self {
        Self {
            status: 200,
            body,
            route,
            shutdown_after: false,
            content_type: TEXT_PLAIN,
            allow: None,
        }
    }

    fn err(route: Route, status: u16, msg: String) -> Self {
        Self {
            status,
            body: msg,
            route,
            shutdown_after: false,
            content_type: TEXT_PLAIN,
            allow: None,
        }
    }

    /// 404 with a JSON error body: the tenant has no loaded model.
    fn unknown_tenant(route: Route, tenant: &str) -> Self {
        Self {
            status: 404,
            body: wire::tenant_error_json(tenant),
            route,
            shutdown_after: false,
            content_type: APPLICATION_JSON,
            allow: None,
        }
    }

    /// 405 carrying the `Allow` header for the path's supported method.
    fn method_not_allowed(allow: &'static str) -> Self {
        Self {
            status: 405,
            body: "method not allowed\n".into(),
            route: Route::Other,
            shutdown_after: false,
            content_type: TEXT_PLAIN,
            allow: Some(allow),
        }
    }
}

fn engine_failure(route: Route, e: EngineError) -> Outcome {
    match e {
        EngineError::NotReady { .. } => Outcome::err(route, 409, format!("{e}\n")),
        EngineError::Rejected(_) => Outcome::err(route, 400, format!("{e}\n")),
        EngineError::UnknownTenant(tenant) => Outcome::unknown_tenant(route, &tenant),
    }
}

/// Sends one shard request and waits for the typed reply.
fn ask<T: Send + 'static>(
    registry: &Registry,
    shard: usize,
    build: impl FnOnce(std::sync::mpsc::Sender<T>) -> ShardRequest,
) -> Result<T, String> {
    let (tx, rx) = channel();
    registry.submit(shard, build(tx))?;
    rx.recv_timeout(ENGINE_REPLY_TIMEOUT)
        .map_err(|_| "inference engine did not answer in time".to_string())
}

/// Resolves the request's tenant (`?tenant=`, defaulting to
/// [`DEFAULT_TENANT`]) against the directory.
fn resolve_tenant(
    registry: &Registry,
    query: &str,
    route: Route,
) -> Result<ResolvedTenant, Outcome> {
    let tenant = http::query_param(query, "tenant").unwrap_or(DEFAULT_TENANT);
    registry
        .resolve(tenant)
        .ok_or_else(|| Outcome::unknown_tenant(route, tenant))
}

fn route(req: &Request, registry: &Registry) -> Outcome {
    let (path, query) = http::split_target(&req.path);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let resolved = match resolve_tenant(registry, query, Route::Healthz) {
                Ok(r) => r,
                // Without an explicit tenant, an empty registry still
                // reports service-level health instead of a 404.
                Err(outcome) => {
                    if http::query_param(query, "tenant").is_none() {
                        return Outcome::ok(
                            Route::Healthz,
                            format!(
                                "ok shards {} models {}\n",
                                registry.num_shards(),
                                registry.model_count()
                            ),
                        );
                    }
                    return outcome;
                }
            };
            match ask(registry, resolved.shard, |reply| ShardRequest::Health {
                tenant: Arc::clone(&resolved.key),
                reply,
            }) {
                Ok(Ok(health)) => Outcome::ok(
                    Route::Healthz,
                    format!(
                        "ok nodes {} features {} history {} horizon {} slots_per_day {} \
                         buffered {} ready {} version {} model_version {} tenant {} shard {}\n",
                        health.info.nodes,
                        health.info.features,
                        health.info.history,
                        health.info.horizon,
                        health.info.slots_per_day,
                        health.state.buffered,
                        health.state.ready,
                        health.state.version,
                        health.model_version,
                        resolved.key,
                        resolved.shard,
                    ),
                ),
                Ok(Err(e)) => engine_failure(Route::Healthz, e),
                Err(msg) => Outcome::err(Route::Healthz, 500, format!("{msg}\n")),
            }
        }
        ("GET", "/metrics") => Outcome::ok(Route::Metrics, registry.render_metrics()),
        ("GET", "/debug/trace") => {
            // Chrome trace_event JSON of every span buffer in the process.
            // Empty (but well-formed) when tracing is off.
            let snap = st_obs::trace::snapshot();
            Outcome::ok(Route::Trace, st_obs::trace::chrome_trace_json(&snap))
        }
        ("POST", "/observe") => {
            let body = match req.body_text() {
                Ok(b) => b,
                Err(msg) => return Outcome::err(Route::Observe, 400, format!("{msg}\n")),
            };
            let resolved = match resolve_tenant(registry, query, Route::Observe) {
                Ok(r) => r,
                Err(outcome) => return outcome,
            };
            let obs =
                match wire::parse_observation(body, resolved.info.nodes, resolved.info.features) {
                    Ok(o) => o,
                    Err(msg) => return Outcome::err(Route::Observe, 400, format!("{msg}\n")),
                };
            match ask(registry, resolved.shard, |reply| ShardRequest::Observe {
                tenant: Arc::clone(&resolved.key),
                values: obs.values,
                mask: obs.mask,
                slot: obs.slot,
                reply,
            }) {
                Ok(Ok(ack)) => Outcome::ok(
                    Route::Observe,
                    format!(
                        "ok version {} buffered {} ready {}\n",
                        ack.version, ack.buffered, ack.ready
                    ),
                ),
                Ok(Err(e)) => engine_failure(Route::Observe, e),
                Err(msg) => Outcome::err(Route::Observe, 500, format!("{msg}\n")),
            }
        }
        ("GET", "/forecast") => {
            let resolved = match resolve_tenant(registry, query, Route::Forecast) {
                Ok(r) => r,
                Err(outcome) => return outcome,
            };
            match ask(registry, resolved.shard, |reply| ShardRequest::Forecast {
                tenant: Arc::clone(&resolved.key),
                reply,
            }) {
                Ok(Ok(reply)) => Outcome::ok(
                    Route::Forecast,
                    wire::format_steps(reply.version, &reply.steps),
                ),
                Ok(Err(e)) => engine_failure(Route::Forecast, e),
                Err(msg) => Outcome::err(Route::Forecast, 500, format!("{msg}\n")),
            }
        }
        ("GET", "/imputed") => {
            let resolved = match resolve_tenant(registry, query, Route::Imputed) {
                Ok(r) => r,
                Err(outcome) => return outcome,
            };
            match ask(registry, resolved.shard, |reply| ShardRequest::Imputed {
                tenant: Arc::clone(&resolved.key),
                reply,
            }) {
                Ok(Ok(reply)) => Outcome::ok(
                    Route::Imputed,
                    wire::format_steps(reply.version, &reply.steps),
                ),
                Ok(Err(e)) => engine_failure(Route::Imputed, e),
                Err(msg) => Outcome::err(Route::Imputed, 500, format!("{msg}\n")),
            }
        }
        ("POST", "/admin/load") => admin_load(req, registry),
        ("POST", "/admin/unload") => {
            let body = match req.body_text() {
                Ok(b) => b,
                Err(msg) => return Outcome::err(Route::AdminUnload, 400, format!("{msg}\n")),
            };
            let tenant = match wire::parse_admin_unload(body) {
                Ok(t) => t,
                Err(msg) => return Outcome::err(Route::AdminUnload, 400, format!("{msg}\n")),
            };
            match registry.unload(&tenant) {
                Ok(()) => Outcome::ok(Route::AdminUnload, format!("ok tenant {tenant} unloaded\n")),
                Err(RegistryError::UnknownTenant(t)) => {
                    Outcome::unknown_tenant(Route::AdminUnload, &t)
                }
                Err(e) => Outcome::err(Route::AdminUnload, 500, format!("{e}\n")),
            }
        }
        ("GET", "/admin/tenants") => {
            let rows = registry.tenants();
            let mut body = format!(
                "shards {} models {} max_models {}\n",
                registry.num_shards(),
                rows.len(),
                registry.max_models()
            );
            for row in &rows {
                body.push_str(&format!(
                    "tenant {} shard {} nodes {} features {} history {} horizon {} \
                     slots_per_day {} model_version {} requests {} tape_runs {}\n",
                    row.name,
                    row.shard,
                    row.info.nodes,
                    row.info.features,
                    row.info.history,
                    row.info.horizon,
                    row.info.slots_per_day,
                    row.counters.model_version(),
                    row.counters.requests(),
                    row.counters.tape_runs(),
                ));
            }
            Outcome::ok(Route::AdminTenants, body)
        }
        ("POST", "/admin/shutdown") => Outcome {
            status: 200,
            body: "shutting down\n".into(),
            route: Route::Shutdown,
            shutdown_after: true,
            content_type: TEXT_PLAIN,
            allow: None,
        },
        (_, "/observe" | "/admin/shutdown" | "/admin/load" | "/admin/unload") => {
            Outcome::method_not_allowed("POST")
        }
        (
            _,
            "/healthz" | "/metrics" | "/debug/trace" | "/forecast" | "/imputed" | "/admin/tenants",
        ) => Outcome::method_not_allowed("GET"),
        _ => Outcome::err(Route::Other, 404, "no such route\n".into()),
    }
}

/// `POST /admin/load`: reads a checkpoint-v2 file from the server's
/// filesystem and installs (or hot-swaps) it under the given tenant.
fn admin_load(req: &Request, registry: &Registry) -> Outcome {
    let body = match req.body_text() {
        Ok(b) => b,
        Err(msg) => return Outcome::err(Route::AdminLoad, 400, format!("{msg}\n")),
    };
    let (tenant, path) = match wire::parse_admin_load(body) {
        Ok(pair) => pair,
        Err(msg) => return Outcome::err(Route::AdminLoad, 400, format!("{msg}\n")),
    };
    if !registry::valid_tenant(&tenant) {
        return Outcome::err(
            Route::AdminLoad,
            400,
            format!("invalid tenant name {tenant:?}\n"),
        );
    }
    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            return Outcome::err(Route::AdminLoad, 400, format!("open {path}: {e}\n"));
        }
    };
    let online = match OnlineForecaster::from_checkpoint(&mut BufReader::new(file)) {
        Ok(o) => o,
        Err(e) => {
            return Outcome::err(Route::AdminLoad, 400, format!("load {path}: {e}\n"));
        }
    };
    match registry.load(&tenant, online) {
        Ok(report) => Outcome::ok(
            Route::AdminLoad,
            format!(
                "ok tenant {tenant} shard {} model_version {} reloaded {} evicted {}\n",
                report.shard,
                report.model_version,
                report.reloaded,
                report.evicted.as_deref().unwrap_or("none"),
            ),
        ),
        Err(e) => Outcome::err(Route::AdminLoad, 500, format!("{e}\n")),
    }
}
