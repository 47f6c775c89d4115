//! End-to-end loopback test: a real server on an ephemeral port, driven
//! through the bundled [`HttpClient`], checked **bit-for-bit** against an
//! identical in-process [`OnlineForecaster`].

use rihgcn_core::{prepare_split, OnlineForecaster, RihgcnConfig, RihgcnModel};
use st_data::{generate_pems, PemsConfig, TrafficDataset};
use st_serve::metrics::sample_value;
use st_serve::{wire, HttpClient, ServeConfig, Server};
use st_tensor::rng;
use std::time::Duration;

const HISTORY: usize = 4;

fn forecaster() -> (OnlineForecaster, TrafficDataset) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut rng(3));
    let (norm, z) = prepare_split(&ds.split_chronological());
    let cfg = RihgcnConfig {
        gcn_dim: 3,
        lstm_dim: 4,
        cheb_k: 2,
        num_temporal_graphs: 2,
        history: HISTORY,
        horizon: 2,
        ..Default::default()
    };
    let model = RihgcnModel::from_dataset(&norm.train, cfg);
    (OnlineForecaster::new(model, z), ds)
}

fn start_server() -> (Server, HttpClient, TrafficDataset) {
    let (online, ds) = forecaster();
    let server = Server::start(
        online,
        ServeConfig {
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let client = HttpClient::connect(&server.local_addr().to_string(), Duration::from_secs(10))
        .expect("connect to server");
    (server, client, ds)
}

#[test]
fn http_forecasts_match_in_process_bit_for_bit() {
    let (server, mut client, ds) = start_server();
    // A second forecaster built the same deterministic way is the oracle.
    let (mut oracle, _) = forecaster();

    // Health before any observation.
    let health = client.get_ok("/healthz").expect("healthz");
    assert!(health.contains("nodes 4"), "health: {health}");
    assert!(
        health.contains("buffered 0 ready false"),
        "health: {health}"
    );

    // Forecast before the window fills → 409 Conflict.
    let resp = client.request("GET", "/forecast", "").expect("request");
    assert_eq!(resp.status, 409, "body: {}", resp.body);
    assert!(resp.body.contains("window not full"), "body: {}", resp.body);

    // Fill the window through HTTP and the oracle identically.
    for t in 0..HISTORY {
        let values = ds.values.time_slice(t);
        let mask = ds.mask.time_slice(t);
        let body = wire::format_observation(t, &values, &mask);
        let ack = client.post_ok("/observe", &body).expect("observe");
        assert!(ack.contains(&format!("version {}", t + 1)), "ack: {ack}");
        oracle.push(values, mask, t);
    }

    // Forecast and imputed window must round-trip bit-identically.
    let forecast_text = client.get_ok("/forecast").expect("forecast");
    let (version, steps) = wire::parse_steps(&forecast_text).expect("parse forecast");
    assert_eq!(version, HISTORY as u64);
    assert_eq!(steps, oracle.forecast().expect("oracle forecast"));

    let imputed_text = client.get_ok("/imputed").expect("imputed");
    let (_, imputed) = wire::parse_steps(&imputed_text).expect("parse imputed");
    assert_eq!(imputed, oracle.imputed_window().expect("oracle imputed"));

    // Repeats at the same window version are coalesced onto the cache:
    // still bit-identical, no extra tape runs.
    let runs_before = server.tape_runs();
    let again = client.get_ok("/forecast").expect("forecast again");
    assert_eq!(again, forecast_text, "cache must serve identical bytes");
    let again = client.get_ok("/forecast").expect("forecast again");
    let (_, steps_again) = wire::parse_steps(&again).expect("parse");
    assert_eq!(steps_again, steps);
    assert_eq!(
        server.tape_runs(),
        runs_before,
        "cached repeats run no tape"
    );
    assert!(server.metrics().total_cache_hits() >= 2);

    // A new observation advances the version and invalidates the cache.
    let body = wire::format_observation(
        HISTORY,
        &ds.values.time_slice(HISTORY),
        &ds.mask.time_slice(HISTORY),
    );
    client.post_ok("/observe", &body).expect("observe");
    oracle.push(
        ds.values.time_slice(HISTORY),
        ds.mask.time_slice(HISTORY),
        HISTORY,
    );
    let text = client.get_ok("/forecast").expect("forecast after advance");
    let (version, steps) = wire::parse_steps(&text).expect("parse");
    assert_eq!(version, HISTORY as u64 + 1);
    assert_eq!(steps, oracle.forecast().expect("oracle forecast"));

    // Error paths: malformed observation, unknown route, wrong method
    // (with the Allow header), unknown tenant (404 + JSON body).
    let resp = client
        .request("POST", "/observe", "slot 0\nvalues 1 2\nmask 1 1\n")
        .expect("request");
    assert_eq!(resp.status, 400, "body: {}", resp.body);
    let resp = client.request("GET", "/nope", "").expect("request");
    assert_eq!(resp.status, 404);
    let resp = client.request("DELETE", "/forecast", "").expect("request");
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"), "Allow on 405");
    let resp = client
        .request("GET", "/admin/shutdown", "")
        .expect("request");
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"), "Allow on 405");
    let resp = client
        .request("GET", "/forecast?tenant=ghost", "")
        .expect("request");
    assert_eq!(resp.status, 404, "body: {}", resp.body);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    assert_eq!(
        resp.body,
        "{\"error\":\"unknown tenant\",\"tenant\":\"ghost\"}\n"
    );

    // Metrics reflect the traffic, including the per-tenant families
    // (the ghost-tenant 404 above counts as a forecast-route request).
    let metrics = client.get_ok("/metrics").expect("metrics");
    assert!(
        metrics.contains("st_serve_requests_total{route=\"forecast\"} 6"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("st_serve_cache_hits_total 2"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("st_serve_errors_total"),
        "metrics: {metrics}"
    );
    assert!(metrics.contains("st_serve_models 1"), "metrics: {metrics}");
    assert!(
        metrics.contains("st_serve_tenant_cache_hits_total{tenant=\"default\"} 2"),
        "metrics: {metrics}"
    );
    assert!(
        metrics.contains("st_serve_tenant_model_version{tenant=\"default\"} 1"),
        "metrics: {metrics}"
    );

    // Graceful shutdown over HTTP; the server drains and joins cleanly,
    // returning the default tenant's forecaster with its window state.
    let bye = client.post_ok("/admin/shutdown", "").expect("shutdown");
    assert!(bye.contains("shutting down"), "bye: {bye}");
    let mut drained = server.join();
    assert_eq!(drained.len(), 1, "one resident model");
    let (tenant, online) = drained.remove(0);
    assert_eq!(tenant, st_serve::DEFAULT_TENANT);
    assert_eq!(online.len(), HISTORY, "rolling window stays capped");
    assert_eq!(online.window_version(), HISTORY as u64 + 1);
}

/// Scrapes `/metrics` and `/debug/trace` over real HTTP after a load burst
/// and checks the text surfaces are internally consistent: every sample
/// line parses, histogram buckets are cumulative (monotone), the request
/// total equals the histogram count, and the trace is valid Chrome JSON
/// with spans from the serve, core and tensor layers.
#[test]
fn metrics_and_trace_scrape_over_http() {
    st_obs::set_enabled(true);
    let (server, mut client, ds) = start_server();

    // Load burst: fill the window, then mixed traffic on every route.
    for t in 0..HISTORY {
        let body = wire::format_observation(t, &ds.values.time_slice(t), &ds.mask.time_slice(t));
        client.post_ok("/observe", &body).expect("observe");
    }
    for _ in 0..3 {
        client.get_ok("/forecast").expect("forecast");
    }
    client.get_ok("/imputed").expect("imputed");
    client.get_ok("/healthz").expect("healthz");
    let resp = client.request("GET", "/nope", "").expect("request");
    assert_eq!(resp.status, 404);

    // The scrape is recorded after its response is rendered, so the text it
    // returns covers exactly the burst above — not this request itself.
    let metrics = client.get_ok("/metrics").expect("metrics");

    let mut samples: Vec<(String, f64)> = Vec::new();
    for line in metrics.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("metric value must be numeric: {line}");
        });
        assert!(value.is_finite() && value >= 0.0, "bad sample: {line}");
        samples.push((name.to_string(), value));
    }

    let get = |name: &str| -> f64 {
        samples
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
            .1
    };

    // Histogram buckets are cumulative: monotone non-decreasing in order.
    let buckets: Vec<f64> = samples
        .iter()
        .filter(|(n, _)| n.starts_with("st_serve_latency_bucket"))
        .map(|&(_, v)| v)
        .collect();
    assert_eq!(buckets.len(), 6, "metrics: {metrics}");
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "buckets must be cumulative: {buckets:?}"
    );

    // The +inf bucket, the histogram count and the per-route request total
    // all count the same requests.
    let count = get("st_serve_latency_count");
    assert_eq!(*buckets.last().unwrap(), count);
    let requests: f64 = samples
        .iter()
        .filter(|(n, _)| n.starts_with("st_serve_requests_total"))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(requests, count, "metrics: {metrics}");
    // 4 observes + 3 forecasts + imputed + healthz + the 404.
    assert_eq!(requests, 10.0, "metrics: {metrics}");

    // Per-route counts mirror the request counters.
    for route in ["observe", "forecast", "imputed", "healthz"] {
        assert_eq!(
            get(&format!(
                "st_serve_route_latency_us_count{{route=\"{route}\"}}"
            )),
            get(&format!("st_serve_requests_total{{route=\"{route}\"}}")),
            "route {route}"
        );
    }

    // Engine-side counters: 2 tape runs (forecast + imputed; repeats hit
    // the version cache), pool stats published after the runs.
    assert_eq!(get("st_serve_tape_runs_total"), 2.0);
    assert_eq!(get("st_serve_cache_hits_total"), 2.0);
    assert_eq!(get("st_serve_queue_depth"), 0.0);
    let pool_acquires = get("st_serve_pool_acquires_total{outcome=\"hit\"}")
        + get("st_serve_pool_acquires_total{outcome=\"miss\"}");
    assert!(pool_acquires > 0.0, "pool stats published after tape runs");

    // The trace endpoint returns valid Chrome trace JSON with spans from
    // the serve, core and tensor layers (the engine thread ran the tape).
    let trace = client.get_ok("/debug/trace").expect("trace");
    let stats = st_obs::trace::validate_chrome_trace(&trace).expect("valid Chrome trace");
    assert!(stats.span_events > 0, "trace has spans");
    for prefix in ["serve.", "core.", "tensor."] {
        assert!(
            stats.has_prefix(prefix),
            "trace must contain {prefix}* spans; names: {:?}",
            stats.names
        );
    }
    let resp = client.request("POST", "/debug/trace", "").expect("request");
    assert_eq!(resp.status, 405);

    server.shutdown_handle().shutdown();
    server.join();
    st_obs::set_enabled(false);
}

/// K threads hammer `/forecast` on one tenant while observations keep
/// advancing the window, so the shard's drain loop groups forecasts of
/// distinct window versions into batched tape runs. Every response must
/// still be bit-identical to a sequential in-process oracle replaying the
/// same observation stream, and the scraped `st_serve_batch_size`
/// histogram must have recorded at least one batch of more than one
/// window.
#[test]
fn concurrent_burst_is_bit_identical_and_batches() {
    const THREADS: usize = 6;
    const FORECASTS_PER_THREAD: usize = 30;
    const OBSERVATIONS_PER_ROUND: usize = 60;
    const MAX_ROUNDS: usize = 5;

    let (online, ds) = forecaster();
    let server = Server::start(
        online,
        ServeConfig {
            workers: THREADS + 2,
            // On a loaded single-CPU host the burst can trickle into the
            // shard one request at a time; a linger lets real batches
            // form anyway (results must stay bit-identical either way).
            batch_linger: Duration::from_millis(2),
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut client =
        HttpClient::connect(&addr, Duration::from_secs(10)).expect("connect to server");
    let (mut oracle, _) = forecaster();

    // Fill the window; mirror every push into the oracle.
    for t in 0..HISTORY {
        let body = wire::format_observation(t, &ds.values.time_slice(t), &ds.mask.time_slice(t));
        client.post_ok("/observe", &body).expect("observe");
        oracle.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
    }
    // Oracle forecast per window version, computed sequentially: index v
    // holds the forecast after v observations.
    let mut expected: Vec<Option<Vec<st_tensor::Matrix>>> = vec![None; HISTORY];
    expected.push(Some(oracle.forecast().expect("oracle ready")));

    let mut next_slot = HISTORY;
    let mut batched = false;
    for _round in 0..MAX_ROUNDS {
        // Forecast threads fire continuously on their own connections...
        let readers: Vec<_> = (0..THREADS)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = HttpClient::connect(&addr, Duration::from_secs(10))
                        .expect("connect reader");
                    (0..FORECASTS_PER_THREAD)
                        .map(|_| {
                            let text = client.get_ok("/forecast").expect("burst forecast");
                            wire::parse_steps(&text).expect("parse burst forecast")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        // ...while this thread keeps advancing the window, creating the
        // distinct versions that let the drain form real batches.
        for _ in 0..OBSERVATIONS_PER_ROUND {
            let t = next_slot;
            next_slot += 1;
            let body =
                wire::format_observation(t, &ds.values.time_slice(t), &ds.mask.time_slice(t));
            client.post_ok("/observe", &body).expect("burst observe");
            oracle.push(ds.values.time_slice(t), ds.mask.time_slice(t), t);
            expected.push(Some(oracle.forecast().expect("oracle forecast")));
        }

        for reader in readers {
            for (version, steps) in reader.join().expect("reader thread") {
                let want = expected[version as usize]
                    .as_ref()
                    .expect("response version was produced by an observation");
                assert_eq!(
                    &steps, want,
                    "burst response at version {version} must match the sequential oracle"
                );
            }
        }

        let metrics = server.metrics();
        if metrics.total_batched_windows() > metrics.total_batches() {
            batched = true;
            break;
        }
    }
    assert!(
        batched,
        "a saturated single-tenant queue must form at least one batch > 1"
    );

    // The batch-size histogram is visible on the scrape, cumulative, and
    // agrees with the in-process counters.
    let metrics_text = client.get_ok("/metrics").expect("metrics");
    let get = |name: &str| {
        sample_value(&metrics_text, name).unwrap_or_else(|| panic!("missing metric {name}"))
    };
    let le_one = get("st_serve_batch_size_bucket{le=\"1\"}");
    let count = get("st_serve_batch_size_count");
    let sum = get("st_serve_batch_size_sum");
    assert!(count > 0.0, "batched runs were recorded");
    assert!(
        le_one < count,
        "at least one batch grouped more than one window (le1={le_one}, count={count})"
    );
    assert!(sum > count, "sum counts windows, count counts runs");

    server.shutdown_handle().shutdown();
    server.join();
}

#[test]
fn shutdown_handle_stops_an_idle_server() {
    let (server, mut client, _) = start_server();
    client.get_ok("/healthz").expect("healthz");
    server.shutdown_handle().shutdown();
    let mut drained = server.join();
    assert_eq!(drained.len(), 1);
    let (tenant, online) = drained.remove(0);
    assert_eq!(tenant, st_serve::DEFAULT_TENANT);
    assert_eq!(online.len(), 0);
}

/// A connection capped at two requests must announce the close on its
/// second response (`Connection: close`) and then actually close, so a
/// client never sends a third request into a dead socket.
#[test]
fn last_allowed_response_announces_close() {
    use std::io::{Read, Write};

    let (online, _) = forecaster();
    let server = Server::start(
        online,
        ServeConfig {
            workers: 1,
            max_requests_per_connection: 2,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut stream = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let get = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
    stream
        .write_all(format!("{get}{get}").as_bytes())
        .expect("send two requests");
    // The server must close after the second response: reading to EOF
    // terminates instead of running into the timeout.
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .expect("server closes the connection after its last allowed response");
    let responses: Vec<&str> = raw.split("HTTP/1.1 ").filter(|r| !r.is_empty()).collect();
    assert_eq!(responses.len(), 2, "raw: {raw}");
    assert!(responses[0].starts_with("200"), "raw: {raw}");
    assert!(
        responses[0].contains("Connection: keep-alive\r\n"),
        "first response keeps the connection: {raw}"
    );
    assert!(responses[1].starts_with("200"), "raw: {raw}");
    assert!(
        responses[1].contains("Connection: close\r\n"),
        "last allowed response announces the close: {raw}"
    );

    server.shutdown_handle().shutdown();
    server.join();
}
