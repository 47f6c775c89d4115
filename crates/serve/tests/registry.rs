//! Registry behaviour over real HTTP: sharded multi-tenant forecasts
//! bit-identical to independent single-model servers, hot checkpoint
//! reload under concurrent traffic on the other shard, LRU eviction, and
//! the admin error contract (405 + `Allow`, 404 + JSON).

use rihgcn_core::{prepare_split, save_checkpoint, OnlineForecaster, RihgcnConfig, RihgcnModel};
use st_data::{generate_pems, PemsConfig, TrafficDataset};
use st_serve::metrics::sample_value;
use st_serve::{shard_of, wire, HttpClient, ServeConfig, Server};
use st_tensor::rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const HISTORY: usize = 4;

fn forecaster(seed: u64) -> (OnlineForecaster, TrafficDataset) {
    let ds = generate_pems(&PemsConfig {
        num_nodes: 4,
        num_days: 2,
        ..Default::default()
    });
    let ds = ds.with_extra_missing(0.3, &mut rng(seed));
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

fn connect(server: &Server) -> HttpClient {
    HttpClient::connect(&server.local_addr().to_string(), Duration::from_secs(10))
        .expect("connect to server")
}

fn observe_tenant(client: &mut HttpClient, tenant: &str, ds: &TrafficDataset, t: usize) {
    let body = wire::format_observation(t, &ds.values.time_slice(t), &ds.mask.time_slice(t));
    client
        .post_ok(&format!("/observe?tenant={tenant}"), &body)
        .unwrap_or_else(|e| panic!("observe {tenant} t={t}: {e}"));
}

fn save_temp_checkpoint(tag: &str, online: &OnlineForecaster) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "st_serve_registry_{}_{tag}.ckpt",
        std::process::id()
    ));
    let file = std::fs::File::create(&path).expect("create checkpoint file");
    save_checkpoint(
        online.model(),
        online.zscore(),
        std::io::BufWriter::new(file),
    )
    .expect("save checkpoint");
    path
}

/// First name in the pool routing to `shard` under 2 shards.
fn tenant_on_shard(pool: &[&str], shard: usize) -> String {
    pool.iter()
        .find(|name| shard_of(name, 2) == shard)
        .unwrap_or_else(|| panic!("no pool name routes to shard {shard}"))
        .to_string()
}

#[test]
fn sharded_forecasts_match_single_model_servers_bit_for_bit() {
    let names = ["alpha", "beta", "gamma", "delta"];
    let seeds = [11u64, 12, 13, 14];
    let mut models = Vec::new();
    let mut datasets = Vec::new();
    for (name, seed) in names.iter().zip(seeds) {
        let (online, ds) = forecaster(seed);
        models.push((name.to_string(), online));
        datasets.push(ds);
    }
    let server = Server::start_with_models(
        models,
        ServeConfig {
            workers: 2,
            shards: 2,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut client = connect(&server);

    // The directory lists every tenant on its FNV-determined shard, and
    // the chosen names actually exercise both shards.
    let listing = client.get_ok("/admin/tenants").expect("tenants");
    assert!(
        listing.starts_with("shards 2 models 4"),
        "listing: {listing}"
    );
    for name in names {
        let expected = format!("tenant {name} shard {}", shard_of(name, 2));
        assert!(listing.contains(&expected), "listing: {listing}");
    }
    let used: std::collections::BTreeSet<usize> = names.iter().map(|n| shard_of(n, 2)).collect();
    assert_eq!(used.len(), 2, "test names must cover both shards");

    // Fill all four windows interleaved through the sharded server, the
    // worst case for cross-tenant isolation.
    for t in 0..HISTORY {
        for (name, ds) in names.iter().zip(&datasets) {
            observe_tenant(&mut client, name, ds, t);
        }
    }

    // Fetch every tenant's responses up front (building the comparison
    // servers below takes longer than the connection read timeout).
    let mut sharded = Vec::new();
    for name in names {
        let forecast = client
            .get_ok(&format!("/forecast?tenant={name}"))
            .expect("sharded forecast");
        let imputed = client
            .get_ok(&format!("/imputed?tenant={name}"))
            .expect("sharded imputed");
        sharded.push((forecast, imputed));
    }

    // Per-shard request counters sum to the aggregate engine counter.
    let metrics = client.get_ok("/metrics").expect("metrics");
    let value = |name: &str| {
        sample_value(&metrics, name).unwrap_or_else(|| panic!("missing metric {name}: {metrics}"))
    };
    let per_shard = value("st_serve_shard_requests_total{shard=\"0\"}")
        + value("st_serve_shard_requests_total{shard=\"1\"}");
    assert_eq!(per_shard, value("st_serve_engine_requests_total"));
    drop(client);

    // Every tenant's forecast and imputed window must be byte-identical
    // to an independent single-model server built the same way.
    for (((name, seed), ds), (sharded_forecast, sharded_imputed)) in
        names.iter().zip(seeds).zip(&datasets).zip(&sharded)
    {
        let (single_online, _) = forecaster(seed);
        let single = Server::start(
            single_online,
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
        )
        .expect("bind single-model server");
        let mut single_client = connect(&single);
        for t in 0..HISTORY {
            let body =
                wire::format_observation(t, &ds.values.time_slice(t), &ds.mask.time_slice(t));
            single_client.post_ok("/observe", &body).expect("observe");
        }
        let single_forecast = single_client.get_ok("/forecast").expect("single forecast");
        let single_imputed = single_client.get_ok("/imputed").expect("single imputed");
        assert_eq!(
            sharded_forecast, &single_forecast,
            "tenant {name}: sharded forecast must match a dedicated server byte-for-byte"
        );
        assert_eq!(
            sharded_imputed, &single_imputed,
            "tenant {name}: sharded imputed window must match byte-for-byte"
        );
        single.shutdown();
    }

    let drained = server.shutdown();
    assert_eq!(drained.len(), 4, "all four tenants drained");
    let drained_names: Vec<&str> = drained.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(drained_names, ["alpha", "beta", "delta", "gamma"], "sorted");
    for (_, online) in &drained {
        assert_eq!(online.len(), HISTORY);
    }
}

#[test]
fn hot_reload_bumps_version_without_disrupting_other_shard() {
    let pool = ["t0", "t1", "t2", "t3", "t4", "t5"];
    let reloaded = tenant_on_shard(&pool, 0);
    let steady = tenant_on_shard(&pool, 1);

    let (online_a, ds_a) = forecaster(21);
    let (online_b, ds_b) = forecaster(22);
    // The replacement model, persisted as a checkpoint v2 file; the oracle
    // loads the same bytes, so HTTP results must match it bit-for-bit.
    let (replacement, _) = forecaster(23);
    let path = save_temp_checkpoint("reload", &replacement);
    let file = std::fs::File::open(&path).expect("open checkpoint");
    let mut oracle = OnlineForecaster::from_checkpoint(&mut std::io::BufReader::new(file))
        .expect("oracle from checkpoint");

    let server = Server::start_with_models(
        vec![(reloaded.clone(), online_a), (steady.clone(), online_b)],
        ServeConfig {
            workers: 3,
            shards: 2,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut client = connect(&server);

    // Fill the steady tenant's window and capture its forecast bytes.
    for t in 0..HISTORY {
        observe_tenant(&mut client, &steady, &ds_b, t);
    }
    let steady_forecast = client
        .get_ok(&format!("/forecast?tenant={steady}"))
        .expect("steady forecast");

    // Hammer the steady tenant (other shard) from a second connection
    // while the reload happens; every response must stay a byte-identical
    // 200 — the reload must not drop or disturb in-flight requests.
    let stop = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicU64::new(0));
    let hammer = {
        let stop = Arc::clone(&stop);
        let served = Arc::clone(&served);
        let addr = server.local_addr().to_string();
        let steady = steady.clone();
        let expected = steady_forecast.clone();
        std::thread::spawn(move || {
            let mut client =
                HttpClient::connect(&addr, Duration::from_secs(10)).expect("hammer connect");
            while !stop.load(Ordering::SeqCst) {
                let body = client
                    .get_ok(&format!("/forecast?tenant={steady}"))
                    .expect("steady forecast during reload");
                assert_eq!(body, expected, "steady tenant bytes must not change");
                served.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    // Hot-swap the reloaded tenant's checkpoint over HTTP.
    let ack = client
        .post_ok(
            "/admin/load",
            &wire::format_admin_load(&reloaded, path.to_str().expect("utf-8 path")),
        )
        .expect("admin load");
    assert!(
        ack.contains("model_version 2") && ack.contains("reloaded true"),
        "ack: {ack}"
    );

    // The swapped tenant starts with an empty window at model version 2.
    let health = client
        .get_ok(&format!("/healthz?tenant={reloaded}"))
        .expect("healthz");
    assert!(
        health.contains("buffered 0 ready false") && health.contains("model_version 2"),
        "health: {health}"
    );

    // Refill and compare against the oracle loaded from the same bytes.
    for t in 0..HISTORY {
        observe_tenant(&mut client, &reloaded, &ds_a, t);
        oracle.push(ds_a.values.time_slice(t), ds_a.mask.time_slice(t), t);
    }
    let text = client
        .get_ok(&format!("/forecast?tenant={reloaded}"))
        .expect("forecast after reload");
    let (_, steps) = wire::parse_steps(&text).expect("parse forecast");
    assert_eq!(steps, oracle.forecast().expect("oracle forecast"));

    // Let the hammer observe some post-reload traffic too, then stop it.
    let already = served.load(Ordering::SeqCst);
    while served.load(Ordering::SeqCst) < already + 3 {
        std::thread::yield_now();
    }
    stop.store(true, Ordering::SeqCst);
    hammer.join().expect("hammer thread");
    assert!(served.load(Ordering::SeqCst) > 0, "hammer made progress");

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn lru_eviction_and_admin_error_contract_over_http() {
    let (online_a, _) = forecaster(31);
    let (online_b, _) = forecaster(32);
    let (extra, _) = forecaster(33);
    let path = save_temp_checkpoint("evict", &extra);

    let server = Server::start_with_models(
        vec![("a".to_string(), online_a), ("b".to_string(), online_b)],
        ServeConfig {
            workers: 2,
            shards: 2,
            max_models: 2,
            ..Default::default()
        },
    )
    .expect("bind loopback");
    let mut client = connect(&server);

    // Touch `a` so `b` is the LRU victim, then load `c` over the cap.
    client.get_ok("/healthz?tenant=a").expect("touch a");
    let ack = client
        .post_ok(
            "/admin/load",
            &wire::format_admin_load("c", path.to_str().expect("utf-8 path")),
        )
        .expect("admin load");
    assert!(ack.contains("evicted b"), "ack: {ack}");

    // The evicted tenant now 404s with a JSON error body.
    let resp = client
        .request("GET", "/forecast?tenant=b", "")
        .expect("request");
    assert_eq!(resp.status, 404, "body: {}", resp.body);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    assert_eq!(
        resp.body,
        "{\"error\":\"unknown tenant\",\"tenant\":\"b\"}\n"
    );

    // Wrong methods on /admin/* answer 405 with an Allow header.
    let resp = client.request("GET", "/admin/load", "").expect("request");
    assert_eq!(resp.status, 405, "body: {}", resp.body);
    assert_eq!(resp.header("allow"), Some("POST"));
    let resp = client
        .request("POST", "/admin/tenants", "")
        .expect("request");
    assert_eq!(resp.status, 405, "body: {}", resp.body);
    assert_eq!(resp.header("allow"), Some("GET"));

    // Unloading an unknown tenant is the same JSON 404; unloading a
    // resident one works and shrinks the directory.
    let resp = client
        .request("POST", "/admin/unload", &wire::format_admin_unload("ghost"))
        .expect("request");
    assert_eq!(resp.status, 404, "body: {}", resp.body);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let bye = client
        .post_ok("/admin/unload", &wire::format_admin_unload("c"))
        .expect("unload c");
    assert!(bye.contains("ok tenant c unloaded"), "bye: {bye}");
    let listing = client.get_ok("/admin/tenants").expect("tenants");
    assert!(
        listing.starts_with("shards 2 models 1 max_models 2"),
        "listing: {listing}"
    );

    // The metrics surface records the eviction.
    let metrics = client.get_ok("/metrics").expect("metrics");
    assert!(
        metrics.contains("st_serve_evictions_total 1"),
        "metrics: {metrics}"
    );
    assert!(metrics.contains("st_serve_models 1"), "metrics: {metrics}");

    // A malformed checkpoint answers 400 and the server keeps serving:
    // each edit once panicked the loader on the HTTP worker running it, or
    // (a huge node count with the geo line to match) overflowed a size.
    let text = std::fs::read_to_string(&path).expect("read checkpoint");
    let hostile = path.with_extension("hostile.ckpt");
    let meta = text.lines().find(|l| l.starts_with("meta ")).expect("meta");
    let huge_meta = meta.replacen("nodes 4 ", "nodes 4294967296 ", 1);
    for edits in [
        &[("temporal 2", "temporal 18446744073709551615")][..],
        &[("config cheb_k 2", "config cheb_k 0")],
        &[(meta, &huge_meta), ("geo 4 4", "geo 4294967296 4294967296")],
    ] {
        let mut edited = text.clone();
        for (line, edit) in edits {
            assert!(edited.contains(line), "{line:?} not in checkpoint");
            edited = edited.replacen(line, edit, 1);
        }
        std::fs::write(&hostile, edited).expect("write hostile");
        let body = wire::format_admin_load("d", hostile.to_str().expect("utf-8 path"));
        let resp = client
            .request("POST", "/admin/load", &body)
            .expect("request");
        assert_eq!(resp.status, 400, "{edits:?}: {}", resp.body);
        let health = client.get_ok("/healthz?tenant=a").expect("healthz");
        assert!(health.starts_with("ok"), "health: {health}");
    }

    let drained = server.shutdown();
    assert_eq!(drained.len(), 1);
    assert_eq!(drained[0].0, "a");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&hostile);
}
