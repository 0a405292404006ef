//! A `ShardedClient`'s cached connection to a shard that restarted on the
//! same endpoint is a stale socket, not a dead shard: the next call must
//! redial it and succeed without failing over. (The supervisor's proxy
//! always did; the client used to walk on down the failover order and,
//! with a single shard, fail.)
//!
//! Alone in its binary because it reads the process-global trace
//! collector: no other test may bump `serve:client.failover` under it.
#![cfg(unix)]

use pressio_core::Options;
use pressio_dataset::{DatasetPlugin, Hurricane};
use pressio_serve::protocol::op;
use pressio_serve::{Client, Endpoint, ServeConfig, Server, ShardedClient};
use std::sync::Arc;

#[test]
fn sharded_client_redials_a_restarted_shard_without_failing_over() {
    let dir = std::env::temp_dir().join("pressio_sharded_redial");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = || ServeConfig::new(Endpoint::Unix(dir.join("serve.sock")), dir.join("models"));
    let collector = Arc::new(pressio_obs::Collector::new());
    pressio_obs::install(collector.clone());

    let handle = Server::start(config()).unwrap();
    let trained = Client::connect(handle.endpoint())
        .unwrap()
        .call(
            &Options::new()
                .with("serve:op", op::TRAIN)
                .with("serve:model", "m")
                .with("serve:scheme", "rahman2023")
                .with("serve:dims", vec![8u64, 8, 4])
                .with("serve:timesteps", 1u64)
                .with("serve:bounds", vec![1e-4]),
        )
        .unwrap();
    assert_eq!(trained.get_str("serve:type").unwrap(), "trained");
    // a traced daemon's stats say how much of the training truth sz3 had to
    // store verbatim
    let stats = Client::connect(handle.endpoint()).unwrap().stats().unwrap();
    let elements = stats.get_u64("sz3:elements").unwrap();
    assert!(elements >= 8 * 8 * 4, "{stats}");
    assert!(stats.get_u64("sz3:escapes").unwrap() < elements, "{stats}");

    // a standalone server is a one-shard topology; the first call leaves a
    // connection to it in the client's cache
    let mut routed = ShardedClient::connect(handle.endpoint()).unwrap();
    assert_eq!(routed.topology().shards, vec![handle.endpoint().clone()]);
    let data = Hurricane::with_dims(8, 8, 4, 1).load_data(0).unwrap();
    let extra = Options::new().with("pressio:abs", 1e-4);
    let before = routed.predict("m", &data, &extra).unwrap();
    assert_eq!(before.get_str("serve:type").unwrap(), "prediction");

    // restart the only shard on the same endpoint
    handle.trigger_shutdown();
    handle.wait().unwrap();
    let handle = Server::start(config()).unwrap();

    let after = routed.predict("m", &data, &extra).unwrap();
    assert_eq!(
        after.get_f64("serve:prediction").unwrap().to_bits(),
        before.get_f64("serve:prediction").unwrap().to_bits(),
        "{after}"
    );
    pressio_obs::uninstall();
    let counters = collector.report().counters;
    assert_eq!(counters.get("serve:client.failover"), None, "{counters:?}");
    assert_eq!(counters.get("serve:client.retry"), None, "{counters:?}");

    handle.trigger_shutdown();
    handle.wait().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
