//! End-to-end multi-shard tests: supervisor spawn/restart, consistent-hash
//! routing with failover, reload invalidation, batch coalescing, and
//! byte-identical parity between single-process and sharded serving.

use pressio_core::Options;
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_serve::protocol::{self, op};
use pressio_serve::shard::{routing_key, InProcessSpawner};
use pressio_serve::{
    Client, Endpoint, ServeConfig, Server, ShardedClient, Supervisor, SupervisorConfig, Topology,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pressio_shard_e2e").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn local_config(dir: &std::path::Path) -> ServeConfig {
    ServeConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), dir.join("models"))
}

fn train_request(model: &str) -> Options {
    Options::new()
        .with("serve:op", op::TRAIN)
        .with("serve:model", model)
        .with("serve:scheme", "rahman2023")
        .with("serve:dims", vec![8u64, 8, 4])
        .with("serve:timesteps", 1u64)
        .with("serve:bounds", vec![1e-4])
}

fn sample_data(index: usize) -> pressio_core::Data {
    Hurricane::with_dims(8, 8, 4, 2).load_data(index).unwrap()
}

fn start_supervisor(
    dir: &std::path::Path,
    shards: usize,
    restart_max: u32,
) -> pressio_serve::shard::SupervisorHandle {
    let mut config = SupervisorConfig::new(
        Endpoint::Tcp("127.0.0.1:0".into()),
        local_config(dir),
        shards,
    );
    config.restart_max = restart_max;
    Supervisor::start(config, Arc::new(InProcessSpawner)).unwrap()
}

#[test]
fn sharded_predictions_are_byte_identical_to_single_process() {
    let dir = temp_dir("parity");
    let extra = Options::new().with("pressio:abs", 1e-4);

    // single-process reference
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let trained = client.call(&train_request("m")).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );
    let reference: Vec<u64> = (0..4)
        .map(|i| {
            client
                .predict("m", &sample_data(i), &extra)
                .unwrap()
                .get_f64("serve:prediction")
                .unwrap()
                .to_bits()
        })
        .collect();
    client.shutdown().unwrap();
    handle.wait().unwrap();

    // 3-shard deployment over the same model store
    let sup = start_supervisor(&dir, 3, 1);
    let topology = sup.topology();
    assert_eq!(topology.shards.len(), 3);
    assert_eq!(topology.generation, 1);

    // via the shard-aware client (direct routing)
    let mut routed = ShardedClient::connect(sup.endpoint()).unwrap();
    for (i, &want) in reference.iter().enumerate() {
        let resp = routed.predict("m", &sample_data(i), &extra).unwrap();
        assert_eq!(
            resp.get_f64("serve:prediction").unwrap().to_bits(),
            want,
            "sharded prediction {i} differs from single-process"
        );
        // the answering shard is the content-hash home shard
        let req = Client::predict_request("m", &sample_data(i), &extra);
        let home = topology.route(&routing_key(&req).unwrap());
        assert_eq!(resp.get_u64("serve:shard").unwrap(), home as u64);
    }

    // via the supervisor proxy (topology-unaware client)
    let mut plain = Client::connect(sup.endpoint()).unwrap();
    for (i, &want) in reference.iter().enumerate() {
        let resp = plain.predict("m", &sample_data(i), &extra).unwrap();
        assert_eq!(resp.get_f64("serve:prediction").unwrap().to_bits(), want);
        // second hit through the proxy lands on the same shard's warm cache
        let again = plain.predict("m", &sample_data(i), &extra).unwrap();
        assert!(again.get_bool("serve:cached").unwrap(), "{again}");
    }

    sup.trigger_shutdown();
    sup.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervisor_restarts_dead_shard_and_bumps_generation() {
    let dir = temp_dir("restart");
    let sup = start_supervisor(&dir, 2, 2);
    let mut client = Client::connect(sup.endpoint()).unwrap();
    client.call(&train_request("m")).unwrap();
    let extra = Options::new().with("pressio:abs", 1e-4);

    // find a buffer homed on shard 0 and one homed on shard 1
    let topology = sup.topology();
    let mut on0 = None;
    let mut on1 = None;
    for i in 0..16 {
        let req = Client::predict_request("m", &sample_data(i % 4), &extra)
            .with("pressio:rel", 1e-3 * (i + 1) as f64);
        match topology.route(&routing_key(&req).unwrap()) {
            0 if on0.is_none() => on0 = Some(req),
            1 if on1.is_none() => on1 = Some(req),
            _ => {}
        }
    }
    let (on0, on1) = (
        on0.expect("a key homed on shard 0"),
        on1.expect("a key homed on shard 1"),
    );

    // warm shard 1's cache, then kill shard 0
    let warm = client.call(&on1).unwrap();
    assert_eq!(warm.get_str("serve:type").unwrap(), "prediction", "{warm}");
    sup.kill_shard(0);

    // the proxy fails over: shard 0's request still gets an answer
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client.call(&on0).unwrap();
        if resp.get_str("serve:type") == Ok("prediction") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "failover never succeeded: {resp}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // the monitor respawns shard 0 under a bumped generation
    let deadline = Instant::now() + Duration::from_secs(10);
    while sup.topology().generation < 2 {
        assert!(Instant::now() < deadline, "shard was never restarted");
        std::thread::sleep(Duration::from_millis(50));
    }
    let topo2 = sup.topology();
    assert_eq!(topo2.shards.len(), 2);
    // the topology file on disk reflects the restart
    let on_disk = Topology::load(&dir.join("models")).unwrap().unwrap();
    assert_eq!(on_disk.generation, topo2.generation);

    // shard 1's cache was NOT poisoned by shard 0's death: its key is
    // still warm
    let again = client.call(&on1).unwrap();
    assert!(again.get_bool("serve:cached").unwrap(), "{again}");

    // and the restarted shard 0 serves its keys again (cold cache)
    let resp = client.call(&on0).unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");

    sup.trigger_shutdown();
    sup.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_client_fails_over_when_home_shard_stays_dead() {
    let dir = temp_dir("failover");
    // restart budget 0: the killed shard stays dead
    let sup = start_supervisor(&dir, 3, 0);
    Client::connect(sup.endpoint())
        .unwrap()
        .call(&train_request("m"))
        .unwrap();
    let extra = Options::new().with("pressio:abs", 1e-4);
    let mut routed = ShardedClient::connect(sup.endpoint()).unwrap();
    // a request homed on shard 2
    let topology = routed.topology().clone();
    let req = (0..32)
        .map(|i| {
            Client::predict_request("m", &sample_data(i % 4), &extra)
                .with("pressio:rel", 1e-3 * (i + 1) as f64)
        })
        .find(|r| topology.route(&routing_key(r).unwrap()) == 2)
        .expect("a key homed on shard 2");
    sup.kill_shard(2);
    std::thread::sleep(Duration::from_millis(100));
    let resp = routed.call(&req).unwrap();
    assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
    // it was served by a surviving shard, in rendezvous failover order
    let served_by = resp.get_u64("serve:shard").unwrap() as usize;
    assert_ne!(served_by, 2);
    let order = topology.failover_order(&routing_key(&req).unwrap());
    assert_eq!(order[0].0, 2, "home shard first in the order");
    assert!(order[1..].iter().any(|(i, _)| *i == served_by));
    sup.trigger_shutdown();
    sup.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_invalidates_predictions_cached_under_old_model_version() {
    let dir = temp_dir("reload");
    let mut config = local_config(&dir);
    // a long TTL so the stale window is deterministic: without reload,
    // server A would keep resolving v1 for a minute
    config.latest_ttl_ms = 60_000;
    let handle_a = Server::start(config).unwrap();
    let mut client_a = Client::connect(handle_a.endpoint()).unwrap();
    client_a.call(&train_request("m")).unwrap();
    let extra = Options::new().with("pressio:abs", 1e-4);
    let data = sample_data(0);
    let v1 = client_a.predict("m", &data, &extra).unwrap();
    assert_eq!(v1.get_str("serve:model").unwrap(), "m@1", "{v1}");
    assert!(client_a
        .predict("m", &data, &extra)
        .unwrap()
        .get_bool("serve:cached")
        .unwrap());

    // another server over the same store trains version 2
    let handle_b = Server::start(local_config(&dir)).unwrap();
    let mut client_b = Client::connect(handle_b.endpoint()).unwrap();
    let trained = client_b.call(&train_request("m")).unwrap();
    assert_eq!(trained.get_u64("serve:version").unwrap(), 2);

    // server A still serves v1 from its TTL'd resolution + cache
    let stale = client_a.predict("m", &data, &extra).unwrap();
    assert_eq!(stale.get_str("serve:model").unwrap(), "m@1");
    assert!(stale.get_bool("serve:cached").unwrap());
    // a prediction no model made, which no reload makes stale
    let mut analytic = Options::new()
        .with("serve:op", op::PREDICT)
        .with("serve:scheme", "khan2023")
        .with("pressio:abs", 1e-4);
    protocol::data_into_request(&mut analytic, &data);
    assert!(!client_a
        .call(&analytic)
        .unwrap()
        .get_bool("serve:cached")
        .unwrap());

    // reload: after this, nothing cached under v1 may be served
    let reloaded = client_a
        .call(&Options::new().with("serve:op", op::RELOAD))
        .unwrap();
    assert_eq!(
        reloaded.get_str("serve:type").unwrap(),
        "reloaded",
        "{reloaded}"
    );
    assert!(reloaded.get_u64("serve:models.dropped").unwrap() >= 1);
    // exactly the one prediction m@1 made
    assert_eq!(reloaded.get_u64("serve:predictions.purged").unwrap(), 1);
    assert!(client_a
        .call(&analytic)
        .unwrap()
        .get_bool("serve:cached")
        .unwrap());
    let fresh = client_a.predict("m", &data, &extra).unwrap();
    assert_eq!(
        fresh.get_str("serve:model").unwrap(),
        "m@2",
        "reload must not serve predictions cached under the old version: {fresh}"
    );
    assert!(!fresh.get_bool("serve:cached").unwrap());

    client_a.shutdown().unwrap();
    handle_a.wait().unwrap();
    client_b.shutdown().unwrap();
    handle_b.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervisor_train_broadcasts_reload_to_every_shard() {
    let dir = temp_dir("broadcast");
    let sup = start_supervisor(&dir, 2, 1);
    let mut client = Client::connect(sup.endpoint()).unwrap();
    client.call(&train_request("m")).unwrap();
    let extra = Options::new().with("pressio:abs", 1e-4);
    // warm every shard with a direct predict so both resolve v1
    let topology = sup.topology();
    for shard in &topology.shards {
        let mut direct = Client::connect(shard).unwrap();
        let resp = direct.predict("m", &sample_data(0), &extra).unwrap();
        assert_eq!(resp.get_str("serve:model").unwrap(), "m@1", "{resp}");
    }
    // retrain through the supervisor: the reload broadcast must reach
    // every shard, so none keeps serving v1 out of its TTL cache
    let trained = client.call(&train_request("m")).unwrap();
    assert_eq!(trained.get_u64("serve:version").unwrap(), 2);
    for shard in &topology.shards {
        let mut direct = Client::connect(shard).unwrap();
        let resp = direct.predict("m", &sample_data(0), &extra).unwrap();
        assert_eq!(
            resp.get_str("serve:model").unwrap(),
            "m@2",
            "shard {shard} still serves the superseded version: {resp}"
        );
    }
    sup.trigger_shutdown();
    sup.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_buffers_in_one_batch_coalesce_into_one_extraction() {
    let dir = temp_dir("coalesce");
    let mut config = local_config(&dir);
    config.workers = 1;
    config.batch_max = 8;
    config.queue_capacity = 16;
    let handle = Server::start(config).unwrap();
    let endpoint = handle.endpoint().clone();
    let mut client = Client::connect(&endpoint).unwrap();
    client.call(&train_request("m")).unwrap();
    let extra = Options::new().with("pressio:abs", 1e-4);

    // occupy the single worker so the predicts pile into one batch
    let blocker = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            Client::connect(&endpoint)
                .unwrap()
                .call(
                    &Options::new()
                        .with("serve:op", op::SLEEP)
                        .with("serve:ms", 400u64),
                )
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    // four connections submit the SAME buffer while the worker sleeps
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let endpoint = endpoint.clone();
            let extra = extra.clone();
            std::thread::spawn(move || {
                Client::connect(&endpoint)
                    .unwrap()
                    .predict("m", &sample_data(0), &extra)
                    .unwrap()
            })
        })
        .collect();
    let responses: Vec<Options> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    blocker.join().unwrap();
    let first = responses[0].get_f64("serve:prediction").unwrap();
    for resp in &responses {
        assert_eq!(resp.get_str("serve:type").unwrap(), "prediction", "{resp}");
        assert_eq!(resp.get_f64("serve:prediction").unwrap(), first);
    }
    let stats = client.stats().unwrap();
    // 4 identical cold requests need agnostic+dependent features exactly
    // once: 2 extractions ran, 6 were coalesced away
    assert_eq!(
        stats.get_u64("serve:features.computed").unwrap(),
        2,
        "identical buffers must extract once: {stats}"
    );
    assert_eq!(stats.get_u64("serve:coalesced").unwrap(), 6, "{stats}");
    client.shutdown().unwrap();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn topology_op_works_on_standalone_and_sharded_servers() {
    let dir = temp_dir("topology_op");
    // standalone server synthesizes a single-shard topology
    let handle = Server::start(local_config(&dir)).unwrap();
    let mut client = Client::connect(handle.endpoint()).unwrap();
    let resp = client
        .call(&Options::new().with("serve:op", op::TOPOLOGY))
        .unwrap();
    let topo = Topology::from_options(&resp).unwrap();
    assert_eq!(topo.shards, vec![handle.endpoint().clone()]);
    assert_eq!(topo.generation, 0);
    client.shutdown().unwrap();
    handle.wait().unwrap();

    // sharded: shards themselves serve the supervisor-written topology
    let sup = start_supervisor(&dir, 2, 1);
    let shard0 = sup.topology().shards[0].clone();
    let mut direct = Client::connect(&shard0).unwrap();
    let resp = direct
        .call(&Options::new().with("serve:op", op::TOPOLOGY))
        .unwrap();
    let topo = Topology::from_options(&resp).unwrap();
    assert_eq!(topo.shards.len(), 2);
    assert_eq!(topo.generation, 1);
    assert_eq!(topo.base, *sup.endpoint());
    sup.trigger_shutdown();
    sup.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervisor_proxy_reuses_pooled_shard_connections() {
    let dir = temp_dir("pool");
    let sup = start_supervisor(&dir, 2, 1);
    let mut client = Client::connect(sup.endpoint()).unwrap();
    let trained = client.call(&train_request("m")).unwrap();
    assert_eq!(
        trained.get_str("serve:type").unwrap(),
        "trained",
        "{trained}"
    );
    let extra = Options::new().with("pressio:abs", 1e-4);
    let reference: Vec<u64> = (0..4)
        .map(|i| {
            client
                .predict("m", &sample_data(i), &extra)
                .unwrap()
                .get_f64("serve:prediction")
                .unwrap()
                .to_bits()
        })
        .collect();
    for _ in 0..2 {
        for (i, &want) in reference.iter().enumerate() {
            let resp = client.predict("m", &sample_data(i), &extra).unwrap();
            assert_eq!(resp.get_f64("serve:prediction").unwrap().to_bits(), want);
        }
    }

    // 12 routed predicts over 2 shards: after each shard's first dial,
    // every subsequent proxied request rides the parked connection
    let stats = client.stats().unwrap();
    let reused = stats.get_u64("serve:proxy.conn_reuse").unwrap();
    assert!(
        reused >= 10,
        "proxy must reuse pooled connections, saw {reused}: {stats}"
    );

    // a killed shard's parked connection must not wedge the proxy: the
    // stale-socket retry and the failover order keep answers flowing
    sup.kill_shard(0);
    let deadline = Instant::now() + Duration::from_secs(10);
    for (i, &want) in reference.iter().cycle().enumerate().take(8) {
        loop {
            match client.predict("m", &sample_data(i % 4), &extra) {
                Ok(resp) if resp.get_str("serve:type").unwrap() == "prediction" => {
                    assert_eq!(resp.get_f64("serve:prediction").unwrap().to_bits(), want);
                    break;
                }
                _ if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                other => panic!("prediction never recovered after shard kill: {other:?}"),
            }
        }
    }
    sup.trigger_shutdown();
    sup.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_stream_shard_kill_resumes_on_failover_shard_byte_identically() {
    let dir = temp_dir("stream_kill");
    let sup = start_supervisor(&dir, 2, 2);
    let mut client = Client::connect(sup.endpoint()).unwrap();
    client.call(&train_request("m")).unwrap();
    let extra = Options::new()
        .with("serve:model", "m")
        .with("pressio:abs", 1e-4);

    let mut source = Hurricane::with_dims(8, 8, 4, 6)
        .with_fields(&["TC"])
        .unwrap();
    let data: Vec<pressio_core::Data> = (0..6).map(|t| source.load_data(t).unwrap()).collect();

    // unfailed reference stream, proxied through the supervisor: stream
    // ops route by stream:id, so the whole session has shard affinity
    client.stream_begin("ref", &extra).unwrap();
    let reference: Vec<u64> = data
        .iter()
        .enumerate()
        .map(|(t, chunk)| {
            let resp = client
                .stream_chunk_at("ref", t as u64 + 1, chunk, &Options::new())
                .unwrap();
            assert_eq!(
                resp.get_str("serve:type").unwrap(),
                "stream.prediction",
                "{resp}"
            );
            resp.get_f64("serve:prediction").unwrap().to_bits()
        })
        .collect();
    client.stream_end("ref").unwrap();

    // the faulted stream: find its home shard before starting
    let probe = Options::new()
        .with("serve:op", op::STREAM_CHUNK)
        .with("stream:id", "kill");
    let home = sup.topology().route(&routing_key(&probe).unwrap());

    let mut sender = pressio_serve::ResilientStreamSender::new(
        sup.endpoint().clone(),
        "kill",
        pressio_serve::RetryPolicy {
            max_attempts: 20,
            base_ms: 20,
            max_ms: 200,
        },
    );
    let begun = sender.begin(&extra).unwrap();
    assert_eq!(begun.get_str("serve:type").unwrap(), "stream.begun");
    let mut recovered = vec![0u64; data.len()];
    while sender.next_seq() <= data.len() as u64 {
        let seq = sender.next_seq();
        if seq == 4 {
            // kill the session's home shard mid-stream: the proxy fails
            // over, the failover shard rehydrates the session from the
            // shared journal, and the stream continues
            sup.kill_shard(home);
        }
        let resp = sender
            .send_chunk(seq, &data[seq as usize - 1], &Options::new())
            .unwrap();
        if resp.get_str_opt("serve:type").unwrap() == Some("stream.rewound") {
            continue;
        }
        assert_eq!(
            resp.get_str("serve:type").unwrap(),
            "stream.prediction",
            "chunk {seq} after shard kill: {resp}"
        );
        recovered[seq as usize - 1] = resp.get_f64("serve:prediction").unwrap().to_bits();
    }
    assert_eq!(
        recovered, reference,
        "stream resumed across a shard kill diverged from the unfailed run"
    );
    assert!(
        sender.resumes() >= 1,
        "the sender must have resumed the session (resumes: {})",
        sender.resumes()
    );

    let ended = sender.end().unwrap();
    assert_eq!(
        ended.get_str("serve:type").unwrap(),
        "stream.ended",
        "{ended}"
    );
    assert_eq!(ended.get_u64("stream:chunks").unwrap(), 6);

    sup.trigger_shutdown();
    sup.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--shards N --max-frame-mb M`: the base endpoint's proxy enforces the
/// configured cap on the declared length, like the shards behind it. (It
/// used to check only the protocol ceiling, so a hostile prefix under the
/// ceiling made it allocate the declared size and wait for the body.)
#[test]
fn supervisor_proxy_honours_the_configured_frame_cap() {
    let dir = temp_dir("proxy_cap");
    let mut template = local_config(&dir);
    template.max_frame = 64 << 10;
    let config = SupervisorConfig::new(Endpoint::Tcp("127.0.0.1:0".into()), template, 2);
    let sup = Supervisor::start(config, Arc::new(InProcessSpawner)).unwrap();

    // 1 MiB declared, nothing behind it: over the cap, under the ceiling
    let mut prefix = protocol::MAGIC.to_vec();
    prefix.extend_from_slice(&2u32.to_be_bytes());
    prefix.extend_from_slice(&(1u64 << 20).to_be_bytes());
    let mut conn = sup.endpoint().connect().unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::io::Write::write_all(&mut conn, &prefix).unwrap();
    let reply = protocol::read_frame(&mut conn)
        .expect("the proxy must answer from the prefix alone")
        .unwrap();
    assert!(protocol::is_error(&reply, protocol::code::BAD_REQUEST));
    assert!(
        reply
            .get_str("serve:message")
            .unwrap()
            .contains("frame cap"),
        "{reply}"
    );

    // a frame under the cap is proxied as before
    let mut client = Client::connect(sup.endpoint()).unwrap();
    assert_eq!(
        client.ping().unwrap().get_str("serve:role").unwrap(),
        "supervisor"
    );

    sup.trigger_shutdown();
    sup.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
