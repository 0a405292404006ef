//! The routed call: one request to its home shard over a cached
//! connection, failing over along the rendezvous order. The supervisor's
//! proxy and [`crate::ShardedClient`] are both this function over their
//! own [`ShardConns`].

use crate::client::Client;
use crate::net::Endpoint;
use crate::shard::Topology;
use pressio_core::error::{Error, Result};
use pressio_core::Options;
use std::collections::HashMap;
use std::sync::Mutex;

/// A routed response and how it was reached.
pub(crate) struct Routed {
    pub(crate) response: Options,
    /// Shards skipped as unreachable before one answered.
    pub(crate) hops: usize,
    /// Whether a cached connection carried the exchange.
    pub(crate) reused: bool,
}

/// One cached connection per shard index. A connection leaves the cache
/// while a request is in flight (frames must never interleave on one
/// socket) and returns on success; errors drop it. The endpoint is stored
/// with it so a shard restarted elsewhere never inherits a stale socket.
#[derive(Default)]
pub(crate) struct ShardConns {
    cache: Mutex<HashMap<usize, (Endpoint, Client)>>,
}

impl ShardConns {
    fn take(&self, index: usize, endpoint: &Endpoint) -> Option<Client> {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        match cache.remove(&index) {
            Some((ep, client)) if &ep == endpoint => Some(client),
            _ => None,
        }
    }

    fn park(&self, index: usize, endpoint: &Endpoint, client: Client) {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache.insert(index, (endpoint.clone(), client));
    }

    /// One exchange with shard `index` over its cached connection, with
    /// one fresh dial when that socket turns out stale (closed while idle,
    /// or the shard restarted in place) — caching must never cause a
    /// failover a fresh dial would have avoided. Returns the response and
    /// whether the cached connection carried it.
    pub(crate) fn call_shard(
        &self,
        index: usize,
        endpoint: &Endpoint,
        request: &Options,
    ) -> Result<(Options, bool)> {
        let cached = self.take(index, endpoint);
        let reused = cached.is_some();
        let mut client = match cached {
            Some(client) => client,
            None => Client::connect(endpoint)?,
        };
        let (response, reused) = match client.call(request) {
            Ok(response) => (response, reused),
            Err(_) if reused => {
                client = Client::connect(endpoint)?;
                (client.call(request)?, false)
            }
            Err(e) => return Err(e),
        };
        self.park(index, endpoint, client);
        Ok((response, reused))
    }

    /// Send `request` to the home shard for `key`, walking the rendezvous
    /// failover order past shards that cannot be reached. Fails with the
    /// last shard's error when none answers.
    pub(crate) fn call_routed(
        &self,
        topology: &Topology,
        key: &str,
        request: &Options,
    ) -> Result<Routed> {
        let mut last = Error::Io(format!(
            "no shard reachable via {} (topology generation {})",
            topology.base, topology.generation
        ));
        for (hops, (index, endpoint)) in topology.failover_order(key).iter().enumerate() {
            match self.call_shard(*index, endpoint, request) {
                Ok((response, reused)) => {
                    return Ok(Routed {
                        response,
                        hops,
                        reused,
                    })
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}
