//! Serving workloads: a loopback `st-serve` deployment driven by this
//! process's own load generator.
//!
//! After the set-up (models built, server started, every tenant's window
//! filled) and an unrecorded open-loop warm-up, a run repeats [`CYCLES`]
//! times a pair of phases:
//!
//! 1. nominal — open loop (Poisson arrivals from the seed) at the nominal
//!    rate for 60% of the cycle; latency is timed from each arrival's due
//!    time, so a stall also charges the requests queued behind it;
//! 2. closed loop — [`THREADS`] connections send back to back for the
//!    remaining 40%; completions per one-second slice give the capacity.
//!
//! Cycling spreads both samples over the whole run, so a burst of host
//! contention skews neither. After each cycle the acknowledged
//! observations are replayed, in acknowledged-version order, into an
//! in-process mirror of every tenant's forecaster, and sampled forecast
//! replies must equal the mirror's forecast at the same window version
//! byte for byte.

use crate::layers::{ratio, report_matmuls, report_setup, CounterDelta, Counters, Spans};
use crate::report::{median, peak_rss_mb, percentile, sorted, Report};
use crate::train::{pems, smoke_model};
use crate::THREADS;
use rihgcn_core::{prepare_split, OnlineForecaster, RihgcnConfig, RihgcnModel};
use st_data::PEMS_FEATURES;
use st_serve::{wire, ServeConfig, Server};
use st_tensor::{Matrix, StRng};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Nominal + closed-loop phase pairs per run.
const CYCLES: usize = 3;

/// Socket timeout of the generator's connections: far above any expected
/// latency, far below the run's time limit.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// Sizes and traffic of one serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Tenants, each with its own dataset and model.
    pub tenants: usize,
    /// Sensors `N` per tenant.
    pub nodes: usize,
    /// Simulated days of each tenant's dataset.
    pub days: usize,
    /// Model hyper-parameters (the seed is replaced per tenant).
    pub model: RihgcnConfig,
    /// Engine shards.
    pub shards: usize,
    /// Open-loop arrivals per second.
    pub rate: f64,
    /// `Some(p)`: arrivals are forecasts and one observe is due every `p`
    /// seconds; `None`: every arrival is an observe followed by a forecast
    /// of the same tenant on the same connection.
    pub observe_period: Option<f64>,
    /// Zipf exponent of tenant popularity.
    pub zipf: f64,
    /// Latency limit of an arrival, milliseconds.
    pub slo_ms: f64,
    /// Unrecorded open-loop seconds before the nominal phase.
    pub warmup_s: f64,
    /// Requests the server serves per connection before closing it.
    pub max_requests_per_connection: usize,
    /// Every `sample_every`-th forecast reply of a phase is kept for the
    /// mirror check, at most `samples_per_phase` of them.
    pub sample_every: usize,
    /// See `sample_every`.
    pub samples_per_phase: usize,
    /// Observations pre-encoded per tenant (cycled).
    pub stream_len: usize,
    /// Complete set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Per-thread span ring capacity of a traced run.
    pub ring: usize,
    /// Share of every 100 ms with spans on in a traced run's load phases
    /// (sampling keeps the rings bounded on span-dense workloads).
    pub trace_duty: f64,
}

/// `serve-city`: one paper-scale tenant (N = 207), read-heavy with large
/// replies.
pub fn city(smoke: bool) -> ServeSpec {
    let spec = ServeSpec {
        tenants: 1,
        nodes: 207,
        days: 7,
        model: RihgcnConfig::paper_scale(),
        shards: 1,
        rate: 100.0,
        observe_period: Some(1.0),
        zipf: 0.0,
        slo_ms: 750.0,
        warmup_s: 2.0,
        max_requests_per_connection: 10_000,
        sample_every: 97,
        samples_per_phase: 1,
        stream_len: 64,
        setups: 3,
        ring: 1 << 16,
        trace_duty: 1.0,
    };
    if smoke {
        return ServeSpec {
            nodes: 6,
            days: 3,
            model: smoke_model(),
            rate: 60.0,
            observe_period: Some(0.2),
            warmup_s: 0.2,
            max_requests_per_connection: 25,
            sample_every: 7,
            samples_per_phase: 4,
            setups: 2,
            ring: 1 << 15,
            ..spec
        };
    }
    spec
}

/// `serve-fleet`: 16 small tenants on 2 shards, write-heavy with tiny
/// payloads.
pub fn fleet(smoke: bool) -> ServeSpec {
    let spec = ServeSpec {
        tenants: 16,
        nodes: 8,
        days: 3,
        model: RihgcnConfig {
            gcn_dim: 4,
            lstm_dim: 8,
            num_temporal_graphs: 2,
            ..RihgcnConfig::default()
        },
        shards: 2,
        rate: 400.0,
        observe_period: None,
        zipf: 1.1,
        slo_ms: 10.0,
        warmup_s: 2.0,
        max_requests_per_connection: 10_000,
        sample_every: 41,
        samples_per_phase: 16,
        stream_len: 256,
        setups: 3,
        ring: 1 << 18,
        trace_duty: 0.2,
    };
    if smoke {
        return ServeSpec {
            tenants: 4,
            nodes: 4,
            model: smoke_model(),
            rate: 100.0,
            warmup_s: 0.2,
            max_requests_per_connection: 25,
            sample_every: 5,
            samples_per_phase: 4,
            stream_len: 32,
            setups: 2,
            ring: 1 << 15,
            trace_duty: 1.0,
            ..spec
        };
    }
    spec
}

/// One pre-encoded observation of a tenant's sensors.
struct Obs {
    slot: usize,
    values: Matrix,
    mask: Matrix,
    body: String,
}

/// A tenant as the generator sees it.
struct Tenant {
    name: String,
    stream: Vec<Obs>,
    /// Next stream entry to send (shared by the generator threads).
    next: AtomicUsize,
}

/// An observation the server acknowledged: `(tenant, stream index,
/// window version after the push)`.
type Ack = (usize, usize, u64);

/// A forecast reply kept for the mirror check: `(tenant, version, body)`.
type Sample = (usize, u64, String);

/// A running deployment plus the generator's view of its tenants.
struct Deployment {
    server: Server,
    tenants: Vec<Tenant>,
    /// Acknowledgements of the window-filling observations.
    fill_acks: Vec<Ack>,
}

/// Builds every tenant's model, starts the server and fills every window:
/// everything before the first timed request. `mirrors` receives an
/// untouched copy of each forecaster; building it is not timed.
fn deploy(
    spec: &ServeSpec,
    seed: u64,
    mut mirrors: Option<&mut Vec<OnlineForecaster>>,
) -> io::Result<(Deployment, f64)> {
    let start = Instant::now();
    let mut untimed = Duration::ZERO;
    let mut models = Vec::with_capacity(spec.tenants);
    let mut tenants = Vec::with_capacity(spec.tenants);
    for t in 0..spec.tenants {
        let tenant_seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64));
        let ds = pems(spec.nodes, spec.days, tenant_seed);
        let (norm, z) = prepare_split(&ds.split_chronological());
        let model = {
            let _span = st_obs::span!("bench.model_build");
            RihgcnModel::from_dataset(&norm.train, spec.model.clone().with_seed(tenant_seed))
        };
        let online = OnlineForecaster::new(model, z);
        if let Some(mirrors) = mirrors.as_deref_mut() {
            let copy_start = Instant::now();
            mirrors.push(copy_forecaster(&online));
            untimed += copy_start.elapsed();
        }
        // The stream replays the dataset's last timestamps in raw units,
        // hidden entries included (the server canonicalises them).
        let first = ds.num_times() - spec.stream_len;
        let stream = (first..ds.num_times())
            .map(|time| {
                let values = ds.values.time_slice(time);
                let mask = ds.mask.time_slice(time);
                let slot = ds.slot_of(time);
                let body = wire::format_observation(slot, &values, &mask);
                Obs {
                    slot,
                    values,
                    mask,
                    body,
                }
            })
            .collect();
        let name = if spec.tenants == 1 {
            "city".to_string()
        } else {
            format!("t{t:02}")
        };
        models.push((name.clone(), online));
        tenants.push(Tenant {
            name,
            stream,
            next: AtomicUsize::new(0),
        });
    }
    // Spans are kept off from here to the end of the set-up: a traced
    // run's set-up metrics cover the model builds above, and shard threads
    // that record no span allocate no ring.
    let traced = st_obs::enabled();
    st_obs::set_enabled(false);
    let server = Server::start_with_models(
        models,
        ServeConfig {
            workers: THREADS,
            shards: spec.shards,
            max_requests_per_connection: spec.max_requests_per_connection,
            ..ServeConfig::default()
        },
    )?;
    let mut dep = Deployment {
        server,
        tenants,
        fill_acks: Vec::new(),
    };
    let mut conn = Conn::connect(dep.server.local_addr())?;
    for t in 0..dep.tenants.len() {
        for _ in 0..spec.model.history {
            let (index, version) = observe(&mut conn, &dep.tenants[t]).map_err(io::Error::other)?;
            dep.fill_acks.push((t, index, version));
        }
    }
    st_obs::set_enabled(traced);
    Ok((dep, (start.elapsed() - untimed).as_secs_f64()))
}

/// An exact copy of a forecaster: same graphs, parameters and transform.
fn copy_forecaster(online: &OnlineForecaster) -> OnlineForecaster {
    let model = online.model();
    let mut copy = RihgcnModel::from_parts(
        model.config().clone(),
        model.num_features(),
        model.geo_adjacency().clone(),
        model.temporal_graphs().to_vec(),
        model.slots_per_day(),
    );
    *copy.params_mut() = model.params().clone();
    OnlineForecaster::new(copy, online.zscore().clone())
}

/// Why an exchange failed.
enum Failure {
    /// The server had closed the connection: no response byte arrived.
    Closed,
    /// Anything else.
    Other(String),
}

fn is_closed(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
    )
}

/// One keep-alive HTTP/1.1 connection of the generator.
///
/// The server closes a connection after a fixed number of requests, yet
/// its last response still advertises keep-alive; a request sent after
/// that finds the connection closed before any response byte. Such a
/// request is retried once on a fresh connection and counted as a
/// reconnect; every other error fails the request.
struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reconnects: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            reconnects: 0,
        })
    }

    fn reopen(&mut self) -> io::Result<()> {
        let reconnects = self.reconnects + 1;
        *self = Conn::connect(self.addr)?;
        self.reconnects = reconnects;
        Ok(())
    }

    /// Sends one request; returns the status and body.
    fn call(&mut self, method: &str, target: &str, body: &str) -> Result<(u16, String), String> {
        match self.exchange(method, target, body) {
            Ok(reply) => Ok(reply),
            Err(Failure::Closed) => {
                self.reopen().map_err(|e| format!("reconnect: {e}"))?;
                self.exchange(method, target, body).map_err(|f| match f {
                    Failure::Closed => format!("{method} {target}: connection closed twice"),
                    Failure::Other(e) => e,
                })
            }
            Err(Failure::Other(e)) => {
                // The connection state is unknown: start the next request
                // on a fresh one.
                let _ = self.reopen();
                Err(e)
            }
        }
    }

    fn exchange(
        &mut self,
        method: &str,
        target: &str,
        body: &str,
    ) -> Result<(u16, String), Failure> {
        let other = |what: &str, e: &dyn std::fmt::Display| {
            Failure::Other(format!("{method} {target}: {what}: {e}"))
        };
        let mut request = format!(
            "{method} {target} HTTP/1.1\r\nHost: stbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        if let Err(e) = self.writer.write_all(&request) {
            return Err(if is_closed(&e) {
                Failure::Closed
            } else {
                other("send", &e)
            });
        }
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => return Err(Failure::Closed),
            Err(e) if is_closed(&e) => return Err(Failure::Closed),
            Err(e) => return Err(other("read status", &e)),
            Ok(_) => {}
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| other("bad status line", &line.trim_end()))?;
        let mut length = 0usize;
        let mut close = false;
        loop {
            let mut header = String::new();
            match self.reader.read_line(&mut header) {
                Ok(0) => return Err(other("headers", &"connection closed")),
                Err(e) => return Err(other("headers", &e)),
                Ok(_) => {}
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|e| other("content-length", &e))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut bytes = vec![0u8; length];
        self.reader
            .read_exact(&mut bytes)
            .map_err(|e| other("body", &e))?;
        let body = String::from_utf8(bytes).map_err(|e| other("body", &e))?;
        if close {
            self.reopen().map_err(|e| other("reconnect", &e))?;
        }
        Ok((status, body))
    }
}

/// Posts the tenant's next stream observation; returns its stream index
/// and the acknowledged window version.
fn observe(conn: &mut Conn, tenant: &Tenant) -> Result<(usize, u64), String> {
    let index = tenant.next.fetch_add(1, Ordering::Relaxed);
    let obs = &tenant.stream[index % tenant.stream.len()];
    let (status, body) = conn.call(
        "POST",
        &format!("/observe?tenant={}", tenant.name),
        &obs.body,
    )?;
    if status != 200 {
        return Err(format!("observe: HTTP {status}: {}", body.trim_end()));
    }
    // "ok version V buffered B ready R"
    let version = body
        .split_whitespace()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("observe: bad acknowledgement {body:?}"))?;
    Ok((index, version))
}

/// Gets the tenant's forecast; returns its window version and the body.
fn forecast(conn: &mut Conn, tenant: &Tenant) -> Result<(u64, String), String> {
    let (status, body) = conn.call("GET", &format!("/forecast?tenant={}", tenant.name), "")?;
    if status != 200 {
        return Err(format!("forecast: HTTP {status}: {}", body.trim_end()));
    }
    let version = body
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("version "))
        .and_then(|v| v.parse().ok())
        .ok_or("forecast: reply has no version line")?;
    Ok((version, body))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Forecast,
    Observe,
    ObserveThenForecast,
}

/// One scheduled open-loop arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Seconds after the phase start.
    due: f64,
    tenant: usize,
    kind: Kind,
}

/// Cumulative Zipf(s) popularity over `n` tenants (rank 0 hottest).
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn pick(cdf: &[f64], rng: &mut StRng) -> usize {
    let u = rng.gen_f64();
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

/// The open-loop arrival schedule of one phase.
fn schedule(spec: &ServeSpec, seconds: f64, rng: &mut StRng) -> Vec<Arrival> {
    let cdf = zipf_cdf(spec.tenants, spec.zipf);
    let kind = if spec.observe_period.is_some() {
        Kind::Forecast
    } else {
        Kind::ObserveThenForecast
    };
    let mut out = Vec::new();
    let mut due = 0.0;
    loop {
        due += -(1.0 - rng.gen_f64()).ln() / spec.rate;
        if due >= seconds {
            break;
        }
        out.push(Arrival {
            due,
            tenant: pick(&cdf, rng),
            kind,
        });
    }
    if let Some(period) = spec.observe_period {
        let mut due = period / 2.0;
        while due < seconds {
            out.push(Arrival {
                due,
                tenant: pick(&cdf, rng),
                kind: Kind::Observe,
            });
            due += period;
        }
    }
    out.sort_by(|a, b| a.due.total_cmp(&b.due));
    out
}

/// What one generator thread saw in one phase.
#[derive(Debug, Default)]
struct Log {
    /// Arrival latency from due time to the last reply, forecasting
    /// arrivals only, milliseconds.
    forecast_ms: Vec<f64>,
    /// Observe latency from due time, milliseconds.
    observe_ms: Vec<f64>,
    /// How late each request was sent, milliseconds.
    lag_ms: Vec<f64>,
    /// Client-side round trip of each forecast request, microseconds.
    forecast_rtt_us: Vec<f64>,
    acks: Vec<Ack>,
    samples: Vec<Sample>,
    requests: u64,
    failed: u64,
    /// Arrivals that failed or exceeded the latency limit.
    slo_misses: u64,
    reconnects: u64,
    errors: Vec<String>,
    /// Completion instant of every successful request.
    done: Vec<Instant>,
}

impl Log {
    fn absorb(&mut self, log: Log) {
        self.forecast_ms.extend(log.forecast_ms);
        self.observe_ms.extend(log.observe_ms);
        self.lag_ms.extend(log.lag_ms);
        self.forecast_rtt_us.extend(log.forecast_rtt_us);
        self.acks.extend(log.acks);
        self.samples.extend(log.samples);
        self.requests += log.requests;
        self.failed += log.failed;
        self.slo_misses += log.slo_misses;
        self.reconnects += log.reconnects;
        self.errors.extend(log.errors);
        self.done.extend(log.done);
    }

    fn merge(logs: Vec<Log>) -> Log {
        let mut all = Log::default();
        for log in logs {
            all.absorb(log);
        }
        all
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(error);
        }
    }

    /// Performs one arrival; `due` is when it was scheduled.
    fn perform(
        &mut self,
        conn: &mut Conn,
        dep: &Deployment,
        spec: &ServeSpec,
        arrival: Arrival,
        due: Instant,
        sample: bool,
    ) {
        let tenant = &dep.tenants[arrival.tenant];
        let mut ok = true;
        if arrival.kind != Kind::Forecast {
            self.requests += 1;
            match observe(conn, tenant) {
                Ok((index, version)) => {
                    self.done.push(Instant::now());
                    self.acks.push((arrival.tenant, index, version));
                    self.observe_ms.push(ms_since(due));
                }
                Err(e) => {
                    ok = false;
                    self.fail(e);
                }
            }
        }
        if arrival.kind != Kind::Observe {
            self.requests += 1;
            let sent = Instant::now();
            match forecast(conn, tenant) {
                Ok((version, body)) => {
                    self.done.push(Instant::now());
                    self.forecast_rtt_us
                        .push(sent.elapsed().as_secs_f64() * 1e6);
                    self.forecast_ms.push(ms_since(due));
                    if sample {
                        self.samples.push((arrival.tenant, version, body));
                    }
                }
                Err(e) => {
                    ok = false;
                    self.fail(e);
                }
            }
        }
        if !ok || ms_since(due) > spec.slo_ms {
            self.slo_misses += 1;
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Drives `arrivals` open loop over [`THREADS`] connections: each thread
/// takes the next due arrival, waits for its due time, and sends it.
fn open_loop(dep: &Deployment, spec: &ServeSpec, arrivals: &[Arrival]) -> Log {
    let next = AtomicUsize::new(0);
    let budget = AtomicUsize::new(spec.samples_per_phase);
    let start = Instant::now();
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut log = Log::default();
                    let mut conn = match Conn::connect(dep.server.local_addr()) {
                        Ok(c) => c,
                        Err(e) => {
                            log.fail(format!("connect: {e}"));
                            return log;
                        }
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&arrival) = arrivals.get(i) else {
                            break;
                        };
                        let due = start + Duration::from_secs_f64(arrival.due);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        log.lag_ms.push(ms_since(due));
                        let sample = i.is_multiple_of(spec.sample_every) && take_slot(&budget);
                        log.perform(&mut conn, dep, spec, arrival, due, sample);
                    }
                    log.reconnects = conn.reconnects;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    Log::merge(logs)
}

/// Drives the workload's request mix back to back over [`THREADS`]
/// connections for `seconds`; returns the log and the completion rate of
/// every one-second slice.
fn closed_loop(dep: &Deployment, spec: &ServeSpec, seconds: f64, seed: u64) -> (Log, Vec<f64>) {
    let count = AtomicUsize::new(0);
    let budget = AtomicUsize::new(spec.samples_per_phase);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let cdf = zipf_cdf(spec.tenants, spec.zipf);
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let (cdf, count, budget) = (&cdf, &count, &budget);
                s.spawn(move || {
                    let mut log = Log::default();
                    let mut rng = st_tensor::rng(seed ^ (0xc105_ed00 + thread as u64));
                    let mut conn = match Conn::connect(dep.server.local_addr()) {
                        Ok(c) => c,
                        Err(e) => {
                            log.fail(format!("connect: {e}"));
                            return log;
                        }
                    };
                    // Thread 0 keeps the nominal phase's observe period.
                    let mut next_observe = start;
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let kind = match spec.observe_period {
                            None => Kind::ObserveThenForecast,
                            Some(period) if thread == 0 && now >= next_observe => {
                                next_observe += Duration::from_secs_f64(period);
                                Kind::Observe
                            }
                            Some(_) => Kind::Forecast,
                        };
                        let arrival = Arrival {
                            due: 0.0,
                            tenant: pick(cdf, &mut rng),
                            kind,
                        };
                        let i = count.fetch_add(1, Ordering::Relaxed);
                        let sample = i.is_multiple_of(spec.sample_every) && take_slot(budget);
                        log.perform(&mut conn, dep, spec, arrival, now, sample);
                    }
                    log.reconnects = conn.reconnects;
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let log = Log::merge(logs);
    let rates = slice_rates(&log.done, start, start.elapsed().as_secs_f64());
    (log, rates)
}

/// Takes one of a phase's mirror-sample slots, if any remain.
fn take_slot(budget: &AtomicUsize) -> bool {
    budget
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Completions per second in consecutive slices of about one second.
fn slice_rates(done: &[Instant], start: Instant, elapsed: f64) -> Vec<f64> {
    let slices = (elapsed.floor() as usize).max(1);
    let width = elapsed / slices as f64;
    let mut counts = vec![0u64; slices];
    for t in done {
        let at = t.duration_since(start).as_secs_f64() / width;
        if let Some(c) = counts.get_mut(at as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// In-process replicas of every tenant's forecaster, advanced by
/// replaying acknowledged observations in version order.
struct Mirror {
    forecasters: Vec<OnlineForecaster>,
    /// Acknowledged, not yet replayed: version → stream index, per tenant.
    pending: Vec<BTreeMap<u64, usize>>,
    /// Sampled replies compared so far.
    compared: usize,
    /// One forecast reply's steps, for timing the wire format.
    reply_steps: Option<Vec<Matrix>>,
}

impl Mirror {
    fn new(forecasters: Vec<OnlineForecaster>) -> Self {
        let pending = vec![BTreeMap::new(); forecasters.len()];
        Self {
            forecasters,
            pending,
            compared: 0,
            reply_steps: None,
        }
    }

    /// Records acknowledgements; two observations acknowledged with the
    /// same version mean the server lost one.
    fn acknowledge(&mut self, acks: &[Ack], report: &mut Report) {
        for &(tenant, index, version) in acks {
            if self.pending[tenant].insert(version, index).is_some() {
                report.check(
                    false,
                    format!("tenant {tenant}: version {version} acknowledged twice"),
                );
            }
        }
    }

    /// Replays tenant `t` up to `version`; false on a gap in the
    /// acknowledged versions.
    fn advance(&mut self, dep: &Deployment, t: usize, version: u64) -> bool {
        let online = &mut self.forecasters[t];
        while online.window_version() < version {
            let Some(index) = self.pending[t].remove(&(online.window_version() + 1)) else {
                return false;
            };
            let obs = &dep.tenants[t].stream[index % dep.tenants[t].stream.len()];
            if online
                .try_push(obs.values.clone(), obs.mask.clone(), obs.slot)
                .is_err()
            {
                return false;
            }
        }
        online.window_version() == version
    }

    /// Checks sampled replies against the mirror, byte for byte.
    fn check(
        &mut self,
        dep: &Deployment,
        mut samples: Vec<Sample>,
        report: &mut Report,
        phase: &str,
    ) {
        samples.sort_by_key(|s| (s.0, s.1));
        let mut mismatches = 0usize;
        for (t, version, body) in &samples {
            if !self.advance(dep, *t, *version) {
                report.check(
                    false,
                    format!("{phase}: tenant {t} cannot replay to version {version} (gap in acknowledged observations)"),
                );
                return;
            }
            let steps = self.forecasters[*t]
                .forecast()
                .expect("mirror window is full");
            if wire::format_steps(*version, &steps) != *body {
                mismatches += 1;
            }
            self.reply_steps.get_or_insert(steps);
        }
        self.compared += samples.len();
        report.check(
            mismatches == 0 && !samples.is_empty(),
            format!(
                "{phase}: {} sampled forecast replies equal the mirror's forecast bit for bit ({mismatches} differ)",
                samples.len()
            ),
        );
    }

    /// Replays every remaining acknowledgement: the versions must be
    /// contiguous.
    fn finish(&mut self, dep: &Deployment, report: &mut Report) {
        for t in 0..self.forecasters.len() {
            let last = self.pending[t].keys().next_back().copied();
            if let Some(last) = last {
                if !self.advance(dep, t, last) {
                    report.check(
                        false,
                        format!("tenant {t}: acknowledged versions are not contiguous"),
                    );
                    return;
                }
            }
        }
        report.check(
            true,
            "every acknowledged observation replays in version order",
        );
    }
}

/// `/metrics` values the per-layer metrics take deltas of.
#[derive(Debug, Default, Clone, Copy)]
struct Scrape {
    forecast_us_sum: f64,
    forecast_count: f64,
    observe_us_sum: f64,
    observe_count: f64,
    cache_hits: f64,
    tape_runs: f64,
    batch_sum: f64,
    batch_count: f64,
    /// Tenants' tape-pool hit rates weighted by their tape runs.
    pool_hit_rate: f64,
}

impl Scrape {
    fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let mut conn = Conn::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
        let (status, text) = conn.call("GET", "/metrics", "")?;
        if status != 200 {
            return Err(format!("metrics: HTTP {status}"));
        }
        let value = |key: &str| -> f64 {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.trim().parse().ok())
                .unwrap_or(0.0)
        };
        let tenant_values = |family: &str| -> BTreeMap<String, f64> {
            text.lines()
                .filter_map(|l| {
                    let rest = l.strip_prefix(family)?.strip_prefix("{tenant=\"")?;
                    let (tenant, value) = rest.split_once("\"} ")?;
                    Some((tenant.to_string(), value.trim().parse().ok()?))
                })
                .collect()
        };
        let runs = tenant_values("st_serve_tenant_tape_runs_total");
        let rates = tenant_values("st_serve_tenant_pool_hit_rate");
        let weighted: f64 = rates
            .iter()
            .map(|(t, r)| r * runs.get(t).copied().unwrap_or(0.0))
            .sum();
        Ok(Scrape {
            pool_hit_rate: ratio(weighted, runs.values().sum()),
            forecast_us_sum: value("st_serve_route_latency_us_sum{route=\"forecast\"}"),
            forecast_count: value("st_serve_route_latency_us_count{route=\"forecast\"}"),
            observe_us_sum: value("st_serve_route_latency_us_sum{route=\"observe\"}"),
            observe_count: value("st_serve_route_latency_us_count{route=\"observe\"}"),
            cache_hits: value("st_serve_cache_hits_total"),
            tape_runs: value("st_serve_tape_runs_total"),
            batch_sum: value("st_serve_batch_size_sum"),
            batch_count: value("st_serve_batch_size_count"),
        })
    }

    /// Adds the movement from `before` to `after`; the pool hit rate, a
    /// cumulative ratio, takes the latest value.
    fn add(&mut self, after: &Scrape, before: &Scrape) {
        self.forecast_us_sum += after.forecast_us_sum - before.forecast_us_sum;
        self.forecast_count += after.forecast_count - before.forecast_count;
        self.observe_us_sum += after.observe_us_sum - before.observe_us_sum;
        self.observe_count += after.observe_count - before.observe_count;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.tape_runs += after.tape_runs - before.tape_runs;
        self.batch_sum += after.batch_sum - before.batch_sum;
        self.batch_count += after.batch_count - before.batch_count;
        self.pool_hit_rate = after.pool_hit_rate;
    }
}

/// Runs `body` with spans on for `duty` of every 100 ms: never at 0,
/// always at 1. Spans are off afterwards.
fn traced_for<R: Send>(duty: f64, body: impl FnOnce() -> R + Send) -> R {
    const CYCLE: Duration = Duration::from_millis(100);
    if duty <= 0.0 {
        return body();
    }
    if duty >= 1.0 {
        st_obs::set_enabled(true);
        let out = body();
        st_obs::set_enabled(false);
        return out;
    }
    let done = std::sync::atomic::AtomicBool::new(false);
    let out = std::thread::scope(|s| {
        let toggler = s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                st_obs::set_enabled(true);
                std::thread::sleep(CYCLE.mul_f64(duty));
                st_obs::set_enabled(false);
                std::thread::sleep(CYCLE.mul_f64(1.0 - duty));
            }
        });
        let out = body();
        done.store(true, Ordering::Relaxed);
        toggler.join().expect("trace toggler panicked");
        out
    });
    st_obs::set_enabled(false);
    out
}

/// Lets shard threads close the spans of requests already answered before
/// the rings are drained.
fn quiesce() {
    std::thread::sleep(Duration::from_millis(50));
}

/// Median wall time of `f` in microseconds over repeated calls.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (samples.len() < 200 && start.elapsed() < Duration::from_millis(200))
    {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Runs one serving workload: `seconds` over [`CYCLES`] nominal and
/// closed-loop phase pairs, 60/40.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setup_times = Vec::with_capacity(spec.setups);
    let mut forecasters = Vec::new();
    let mut deployed: Option<Deployment> = None;
    for i in 0..spec.setups {
        if let Some(dep) = deployed.take() {
            drop(dep.server.shutdown());
        }
        let last = i + 1 == spec.setups;
        match deploy(spec, seed, last.then_some(&mut forecasters)) {
            Ok((dep, secs)) => {
                setup_times.push(secs);
                deployed = Some(dep);
            }
            Err(e) => {
                report.check(false, format!("set-up failed: {e}"));
                return report;
            }
        }
    }
    let dep = deployed.expect("at least one set-up");
    let addr = dep.server.local_addr();
    let mut mirror = Mirror::new(forecasters);
    mirror.acknowledge(&dep.fill_acks, &mut report);
    report.attempted += dep.fill_acks.len() as u64;
    st_obs::set_enabled(false);
    let mut setup_spans = Spans::default();
    if traced {
        quiesce();
        setup_spans.drain();
    }
    report.note(format!(
        "setup: {} runs {:?} s; {} tenants on {} shards",
        spec.setups, setup_times, spec.tenants, spec.shards
    ));

    let mut rng = st_tensor::rng(seed ^ 0x10ad);
    let open_s = 0.6 * seconds / CYCLES as f64;
    let closed_s = 0.4 * seconds / CYCLES as f64;
    // `other` collects the warm-up and closed-loop logs.
    let mut other = open_loop(&dep, spec, &schedule(spec, spec.warmup_s, &mut rng));
    mirror.acknowledge(&other.acks, &mut report);

    let mut nominal = Log::default();
    let mut arrivals = 0usize;
    let mut slices = Vec::new();
    let mut traced_slices = Vec::new();
    let mut scrape = Scrape::default();
    let mut counters = CounterDelta::default();
    let mut spans = Spans::default();
    for cycle in 0..CYCLES {
        let schedule = schedule(spec, open_s, &mut rng);
        arrivals += schedule.len();
        let open_duty = if traced { spec.trace_duty } else { 0.0 };
        let before = (Scrape::take(addr), Counters::take());
        let open = traced_for(open_duty, || open_loop(&dep, spec, &schedule));
        counters.add(before.1.delta());
        match (before.0, Scrape::take(addr)) {
            (Ok(b), Ok(a)) => scrape.add(&a, &b),
            (Err(e), _) | (_, Err(e)) => report.check(false, format!("metrics scrape failed: {e}")),
        }
        if traced {
            quiesce();
            spans.drain();
        }
        // A traced run traces the closed loop of odd cycles only, and
        // compares the two kinds for `trace.overhead`.
        let trace_closed = traced && cycle % 2 == 1;
        let closed_duty = if trace_closed { spec.trace_duty } else { 0.0 };
        let (closed, rates) = traced_for(closed_duty, || {
            closed_loop(&dep, spec, closed_s, seed ^ cycle as u64)
        });
        if trace_closed {
            // Only the rate counts: discard these spans.
            quiesce();
            Spans::default().drain();
            traced_slices.extend(rates);
        } else {
            slices.extend(rates);
        }
        mirror.acknowledge(&open.acks, &mut report);
        mirror.acknowledge(&closed.acks, &mut report);
        let samples = open
            .samples
            .iter()
            .chain(&closed.samples)
            .cloned()
            .collect();
        mirror.check(&dep, samples, &mut report, &format!("cycle {cycle}"));
        nominal.absorb(open);
        other.absorb(closed);
    }
    mirror.finish(&dep, &mut report);
    let Deployment {
        server, tenants, ..
    } = dep;
    drop(server.shutdown());
    let reconnects = other.reconnects + nominal.reconnects;
    for log in [&other, &nominal] {
        report.attempted += log.requests;
        report.failed += log.failed;
        for e in &log.errors {
            report.note(format!("request failed: {e}"));
        }
    }

    let forecast = sorted(nominal.forecast_ms.clone());
    let observe = sorted(nominal.observe_ms.clone());
    let lag = sorted(nominal.lag_ms.clone());
    let capacity = median(&slices);
    report.set("setup_s", median(&setup_times));
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("throughput_per_s", capacity);
    report.set("latency_p50_ms", percentile(&forecast, 0.5));
    report.note(format!(
        "nominal: {arrivals} arrivals at {}/s over {CYCLES} x {open_s:.2} s; forecast latency p90 {:.3} ms, p99 {:.3} ms over {} samples",
        spec.rate,
        percentile(&forecast, 0.9),
        percentile(&forecast, 0.99),
        forecast.len()
    ));
    report.note(format!(
        "observe latency p50 {:.3} ms, p99 {:.3} ms over {} samples",
        percentile(&observe, 0.5),
        percentile(&observe, 0.99),
        observe.len()
    ));
    report.note(format!(
        "slo_miss_ratio {} (limit {} ms), failed_ratio {}",
        ratio(nominal.slo_misses as f64, arrivals as f64),
        spec.slo_ms,
        ratio(report.failed as f64, report.attempted as f64)
    ));
    report.note(format!(
        "capacity: median of {} one-second closed-loop slices; generator lag p99 {:.3} ms; {reconnects} reconnects",
        slices.len(),
        percentile(&lag, 0.99),
    ));
    report.note(format!("mirror compared {} replies", mirror.compared));

    if traced {
        report_setup(&mut report, &setup_spans, spec.setups);
        // Matmul time per tape run, and as a share of the shard's time.
        let runs = spans.get("serve.forecast_batch").count as f64;
        let engine_ns = ["serve.forecast_batch", "serve.forecast", "serve.observe"]
            .iter()
            .map(|name| spans.get(name).total_ns as f64)
            .sum();
        report_matmuls(&mut report, &spans, runs, engine_ns);
        report.set(
            "par.regions_per_window",
            ratio(counters.par_regions as f64, scrape.tape_runs),
        );
        report.set("par.utilization", counters.utilization());
        let requests = nominal.requests as f64;
        report.set(
            "alloc.allocs_per_window",
            ratio(counters.allocs as f64, requests),
        );
        report.set(
            "alloc.bytes_per_window",
            ratio(counters.bytes as f64, requests),
        );

        let route_forecast_us = ratio(scrape.forecast_us_sum, scrape.forecast_count);
        let rtt = &nominal.forecast_rtt_us;
        let client_us = ratio(rtt.iter().sum(), rtt.len() as f64);
        report.set("serve.route_forecast_us", route_forecast_us);
        report.set("http.transport_forecast_us", client_us - route_forecast_us);
        if let Some(steps) = &mirror.reply_steps {
            report.set(
                "wire.format_steps_us",
                time_us(|| {
                    std::hint::black_box(wire::format_steps(1, std::hint::black_box(steps)));
                }),
            );
        }
        report.set(
            "serve.cache_hit_rate",
            ratio(scrape.cache_hits, scrape.forecast_count),
        );
        report.set(
            "core.forward_batched_ms",
            spans.mean_ms("core.forward_batched"),
        );
        report.set(
            "serve.forecast_batch_ms",
            spans.mean_ms("serve.forecast_batch"),
        );
        report.set(
            "serve.tape_runs_per_forecast",
            ratio(scrape.tape_runs, scrape.forecast_count),
        );
        report.set(
            "serve.route_observe_us",
            ratio(scrape.observe_us_sum, scrape.observe_count),
        );
        report.set("serve.observe_ms", spans.mean_ms("serve.observe"));
        let body = &tenants[0].stream[0].body;
        report.set(
            "wire.parse_observation_us",
            time_us(|| {
                std::hint::black_box(
                    wire::parse_observation(std::hint::black_box(body), spec.nodes, PEMS_FEATURES)
                        .is_ok(),
                );
            }),
        );
        report.set(
            "serve.batch_size_mean",
            ratio(scrape.batch_sum, scrape.batch_count),
        );
        report.set("serve.pool_hit_rate", scrape.pool_hit_rate);
        report.set("http.reconnects", reconnects as f64);
        report.set("gen.lag_ms_p99", percentile(&lag, 0.99));
        // Coverage: server route time that the shard's spans account for
        // (sampled at the trace duty).
        let program_ns = spans.self_ns_where(|name| !name.starts_with("bench."));
        let route_ns = (scrape.forecast_us_sum + scrape.observe_us_sum) * 1e3 * spec.trace_duty;
        report.set("trace.coverage", ratio(program_ns as f64, route_ns));
        let dropped = setup_spans.dropped + spans.dropped;
        report.set("trace.dropped", dropped as f64);
        report.set(
            "trace.overhead",
            ratio(median(&traced_slices), capacity) - 1.0,
        );
        report.check(dropped == 0, format!("no spans dropped ({dropped})"));
    }
    report
}
