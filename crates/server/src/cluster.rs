//! The cluster-aware client: erasure-coded archive placement over
//! multiple `cuszp-server` nodes, with failover, degraded reads, and
//! anti-entropy scrub.
//!
//! An archive put under a key is split into `k` data shards of
//! `ceil(len / k)` bytes (zero-padded; `total_len` recovers the tail)
//! plus `m` Reed–Solomon parity shards, and each stripe slot is stored
//! on the node the [`Ring`] places it on. A get fetches the `k` data
//! shards fanned out over pipelined send/recv; when a node is dead or a
//! shard is missing, the read degrades: parity shards are fetched and
//! the missing slots reconstructed from any `k` of `k + m` via
//! [`cuszp_ecc::ReedSolomon`]. Either path verifies the whole-archive
//! FNV-1a recorded at put time, so degraded bytes are bit-identical to
//! healthy bytes or the call fails typed — never silently wrong.
//!
//! Routing errors are first-class: a node answering `Redirect` (stale
//! ring epoch) or `NotMine` (wrong owner) triggers one topology refresh
//! (the `ring` op against any reachable node) and a single re-route,
//! counted in [`ClusterStats`].

use crate::client::{Client, ClientError, ConnectOptions};
use crate::ring::Ring;
use crate::wire::{
    fnv1a, ErrorCode, ErrorResponse, GetShardRequest, GetShardResponse, Op, PutShardRequest,
    ShardListResponse, PUT_FLAG_REPAIR,
};
use cuszp_ecc::{EccError, ReedSolomon};
use cuszp_metrics::Counter;
use std::collections::{BTreeMap, HashMap};

/// Everything a cluster call can fail with.
#[derive(Debug)]
pub enum ClusterError {
    /// Too few shards survived to reassemble or repair the stripe.
    NotEnoughShards {
        /// The archive key.
        key: String,
        /// Shards available.
        have: usize,
        /// Shards required (`k`).
        need: usize,
    },
    /// The reassembled bytes failed the whole-archive checksum.
    Corrupt {
        /// The archive key.
        key: String,
    },
    /// Erasure-coding failure (shape mismatch in stored shards).
    Ecc(EccError),
    /// Local pipeline failure decoding the reassembled archive.
    Pipeline(cuszp_core::CuszpError),
    /// A transport/protocol failure not recovered by failover (for
    /// example: no node in the ring was reachable).
    Client(ClientError),
    /// Empty archives are not stored (a stripe needs at least one byte).
    EmptyArchive,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NotEnoughShards { key, have, need } => {
                write!(
                    f,
                    "'{key}': only {have} of the {need} required shards survive"
                )
            }
            ClusterError::Corrupt { key } => {
                write!(f, "'{key}': reassembled bytes fail the archive checksum")
            }
            ClusterError::Ecc(e) => write!(f, "erasure coding error: {e}"),
            ClusterError::Pipeline(e) => write!(f, "pipeline error: {e}"),
            ClusterError::Client(e) => write!(f, "cluster transport error: {e}"),
            ClusterError::EmptyArchive => write!(f, "empty archives cannot be stored"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<EccError> for ClusterError {
    fn from(e: EccError) -> Self {
        ClusterError::Ecc(e)
    }
}

impl From<ClientError> for ClusterError {
    fn from(e: ClientError) -> Self {
        ClusterError::Client(e)
    }
}

impl From<cuszp_core::CuszpError> for ClusterError {
    fn from(e: cuszp_core::CuszpError) -> Self {
        ClusterError::Pipeline(e)
    }
}

/// Client-side cluster counters ([`cuszp_metrics::Counter`]), the
/// cluster analogue of [`crate::client::RetryStats`].
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// `put` calls.
    pub puts: Counter,
    /// `get` calls (including the get inside `get_range`).
    pub gets: Counter,
    /// Gets that reconstructed at least one shard from parity.
    pub degraded_reads: Counter,
    /// `Redirect`/`NotMine` answers that triggered a re-route.
    pub redirects_followed: Counter,
    /// Topology refreshes via the `ring` op.
    pub ring_refreshes: Counter,
    /// Per-shard sub-requests that failed and were survived (the
    /// stripe still assembled without them).
    pub shard_failures: Counter,
    /// Shards re-replicated by `scrub`.
    pub scrub_repairs: Counter,
}

/// Outcome of a cluster put.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutReport {
    /// Stripe slots stored successfully.
    pub shards_stored: usize,
    /// Stripe width (`k + m`).
    pub total_shards: usize,
    /// Slots that failed, with the failure rendered.
    pub failed: Vec<(u16, String)>,
}

impl PutReport {
    /// True when every stripe slot stored (full redundancy).
    pub fn fully_replicated(&self) -> bool {
        self.shards_stored == self.total_shards
    }
}

/// Outcome of a cluster get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetOutcome {
    /// The archive bytes — bit-identical to what was put.
    pub bytes: Vec<u8>,
    /// True when any shard was rebuilt from parity.
    pub degraded: bool,
}

/// Outcome of an anti-entropy scrub pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Distinct keys seen across all inventories.
    pub keys: usize,
    /// Shards re-replicated onto their owners.
    pub repaired: u64,
    /// Missing shards that could not be rebuilt (under-replicated).
    pub unrepairable: u64,
    /// Ring members whose inventory could not be read.
    pub unreachable_nodes: u64,
}

/// How one per-shard sub-request failed.
enum ShardFailure {
    /// `Redirect`/`NotMine`: the route is stale, refresh and re-route.
    StaleRoute,
    /// The owner answered but does not hold the shard.
    Missing(String),
    /// Transport/protocol failure; the connection was dropped.
    Transport(String),
}

fn classify(e: ClientError) -> ShardFailure {
    match &e {
        ClientError::Server(r) if matches!(r.code, ErrorCode::Redirect | ErrorCode::NotMine) => {
            ShardFailure::StaleRoute
        }
        ClientError::Server(r) if r.code == ErrorCode::NotFound => {
            ShardFailure::Missing(e.to_string())
        }
        _ => ShardFailure::Transport(e.to_string()),
    }
}

/// Splits archive bytes into `k` zero-padded data shards plus `m`
/// parity shards of `shard_size = ceil(len / k)` bytes each.
fn split_stripe(bytes: &[u8], k: usize, m: usize) -> Result<(Vec<Vec<u8>>, usize), ClusterError> {
    if bytes.is_empty() {
        return Err(ClusterError::EmptyArchive);
    }
    let shard_size = bytes.len().div_ceil(k);
    let mut shards: Vec<Vec<u8>> = (0..k)
        .map(|i| {
            let lo = (i * shard_size).min(bytes.len());
            let hi = ((i + 1) * shard_size).min(bytes.len());
            let mut s = bytes[lo..hi].to_vec();
            s.resize(shard_size, 0);
            s
        })
        .collect();
    let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
    let parity = ReedSolomon::new(k, m)?.encode(&refs, shard_size)?;
    shards.extend(parity);
    Ok((shards, shard_size))
}

/// Concatenates the `k` data slots and truncates to the archive length.
fn assemble(data_slots: &[Vec<u8>], total_len: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(total_len as usize);
    for s in data_slots {
        out.extend_from_slice(s);
    }
    out.truncate(total_len as usize);
    out
}

/// A cluster-aware client: routes shard ops by the ring, fans them out
/// over per-node connections with pipelined send/recv, fails over to
/// surviving placements, and repairs under-replication on demand.
#[derive(Debug)]
pub struct ClusterClient {
    ring: Ring,
    opts: ConnectOptions,
    conns: HashMap<u64, Client>,
    stats: ClusterStats,
}

impl ClusterClient {
    /// Builds a client over a known topology. Connections are opened
    /// lazily per node.
    pub fn with_ring(ring: Ring, opts: ConnectOptions) -> ClusterClient {
        ClusterClient {
            ring,
            opts,
            conns: HashMap::new(),
            stats: ClusterStats::default(),
        }
    }

    /// Bootstraps by asking any reachable seed address for the ring.
    pub fn connect_any(
        seeds: &[String],
        opts: ConnectOptions,
    ) -> Result<ClusterClient, ClusterError> {
        let mut last: Option<ClientError> = None;
        for seed in seeds {
            match Client::connect_with(seed, &opts) {
                Ok(mut c) => match c.call(Op::Ring, &[]) {
                    Ok(payload) => {
                        let ring = Ring::decode(&payload).map_err(ClientError::Wire)?;
                        return Ok(ClusterClient::with_ring(ring, opts));
                    }
                    Err(e) => last = Some(e),
                },
                Err(e) => last = Some(e.into()),
            }
        }
        Err(ClusterError::Client(last.unwrap_or(ClientError::Protocol(
            "no seed addresses given",
        ))))
    }

    /// The topology currently routed by.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The cluster counters accumulated so far.
    pub fn stats(&self) -> &ClusterStats {
        &self.stats
    }

    /// The cached (or freshly opened) connection to a node.
    fn conn(&mut self, node_id: u64) -> Result<&mut Client, ClientError> {
        if !self.conns.contains_key(&node_id) {
            let addr = self
                .ring
                .node(node_id)
                .ok_or(ClientError::Protocol("node id left the ring"))?
                .addr
                .clone();
            let client = Client::connect_with(addr.as_str(), &self.opts)?;
            self.conns.insert(node_id, client);
        }
        Ok(self.conns.get_mut(&node_id).expect("just inserted"))
    }

    /// Reads the response matching `id` from a node's connection.
    fn recv_match(conn: &mut Client, id: u64) -> Result<Vec<u8>, ClientError> {
        let frame = conn.recv()?;
        if frame.is_error() {
            let err = ErrorResponse::decode(&frame.payload)?;
            if frame.req_id == id || frame.req_id == 0 {
                return Err(ClientError::Server(err));
            }
            return Err(ClientError::Protocol("error response for another request"));
        }
        if frame.req_id != id {
            return Err(ClientError::Protocol("response id mismatch"));
        }
        Ok(frame.payload)
    }

    /// Fans one request per stripe slot out over the slots' owners:
    /// send everything first, then collect every response, so the
    /// nodes work concurrently. Returns one outcome per requested slot.
    fn fan_out(
        &mut self,
        key: &str,
        slots: &[u16],
        mut payload_for: impl FnMut(u16, u64) -> Vec<u8>,
        op: Op,
    ) -> Vec<Result<Vec<u8>, ClientError>> {
        let epoch = self.ring.epoch;
        let owners: Vec<Option<u64>> = slots
            .iter()
            .map(|&s| self.ring.shard_owner(key, s).map(|n| n.id))
            .collect();
        let mut pending: Vec<Option<(u64, u64)>> = Vec::with_capacity(slots.len());
        let mut out: Vec<Result<Vec<u8>, ClientError>> = Vec::with_capacity(slots.len());
        for (i, &slot) in slots.iter().enumerate() {
            out.push(Err(ClientError::Protocol("shard request not sent")));
            let Some(owner) = owners[i] else {
                pending.push(None);
                out[i] = Err(ClientError::Protocol("stripe slot has no owner"));
                continue;
            };
            let payload = payload_for(slot, epoch);
            match self.conn(owner).and_then(|c| c.send(op, &payload)) {
                Ok(id) => pending.push(Some((owner, id))),
                Err(e) => {
                    self.conns.remove(&owner);
                    out[i] = Err(e);
                    pending.push(None);
                }
            }
        }
        for (i, p) in pending.into_iter().enumerate() {
            let Some((owner, id)) = p else { continue };
            let result = match self.conns.get_mut(&owner) {
                Some(conn) => Self::recv_match(conn, id),
                None => Err(ClientError::Protocol("connection lost mid-fan-out")),
            };
            if let Err(e) = &result {
                // A typed server answer leaves the connection usable;
                // anything else poisons the in-flight stream state.
                if !matches!(e, ClientError::Server(_)) {
                    self.conns.remove(&owner);
                }
            }
            out[i] = result;
        }
        out
    }

    /// Refreshes the topology from any reachable ring member. Adopts
    /// the answer with the highest epoch seen.
    pub fn refresh_ring(&mut self) -> Result<(), ClusterError> {
        let ids: Vec<u64> = self.ring.nodes().iter().map(|n| n.id).collect();
        let mut best: Option<Ring> = None;
        let mut last: Option<ClientError> = None;
        for id in ids {
            let answer = self.conn(id).and_then(|c| c.call(Op::Ring, &[]));
            match answer {
                Ok(payload) => match Ring::decode(&payload) {
                    Ok(ring) => {
                        if best.as_ref().is_none_or(|b| ring.epoch > b.epoch) {
                            best = Some(ring);
                        }
                    }
                    Err(e) => last = Some(ClientError::Wire(e)),
                },
                Err(e) => {
                    self.conns.remove(&id);
                    last = Some(e);
                }
            }
        }
        match best {
            Some(ring) => {
                if ring != self.ring {
                    // Stale per-node connections die with the old view.
                    self.conns.clear();
                }
                self.ring = ring;
                self.stats.ring_refreshes.incr();
                Ok(())
            }
            None => Err(ClusterError::Client(
                last.unwrap_or(ClientError::Protocol("ring has no members")),
            )),
        }
    }

    /// Stores an archive under `key`: splits it into `k` data + `m`
    /// parity shards and fans them out to their owners. Succeeds when
    /// at least `k` shards stored (the stripe is readable); the report
    /// lists any slots that failed (under-replicated until scrubbed).
    pub fn put(&mut self, key: &str, bytes: &[u8]) -> Result<PutReport, ClusterError> {
        self.stats.puts.incr();
        let k = self.ring.data_shards as usize;
        let m = self.ring.parity_shards as usize;
        let (shards, _) = split_stripe(bytes, k, m)?;
        let total_len = bytes.len() as u64;
        let archive_fnv = fnv1a(bytes);
        let slots: Vec<u16> = (0..(k + m) as u16).collect();
        let mut rerouted = false;
        loop {
            let results = self.fan_out(
                key,
                &slots,
                |slot, epoch| {
                    PutShardRequest {
                        key: key.to_string(),
                        shard_idx: slot,
                        ring_epoch: epoch,
                        total_len,
                        archive_fnv,
                        flags: 0,
                        shard: &shards[slot as usize],
                    }
                    .encode()
                },
                Op::Put,
            );
            let mut stored = 0usize;
            let mut failed: Vec<(u16, String)> = Vec::new();
            let mut stale = false;
            for (i, r) in results.into_iter().enumerate() {
                match r {
                    Ok(_) => stored += 1,
                    Err(e) => match classify(e) {
                        ShardFailure::StaleRoute => stale = true,
                        ShardFailure::Missing(msg) | ShardFailure::Transport(msg) => {
                            self.stats.shard_failures.incr();
                            failed.push((slots[i], msg));
                        }
                    },
                }
            }
            if stale && !rerouted {
                rerouted = true;
                self.stats.redirects_followed.incr();
                self.refresh_ring()?;
                continue;
            }
            if stored < k {
                return Err(ClusterError::NotEnoughShards {
                    key: key.to_string(),
                    have: stored,
                    need: k,
                });
            }
            return Ok(PutReport {
                shards_stored: stored,
                total_shards: k + m,
                failed,
            });
        }
    }

    /// Fetches the stripe slots named in `slots`, one owner each.
    fn fetch_slots(
        &mut self,
        key: &str,
        slots: &[u16],
    ) -> Vec<Result<GetShardResponse, ClientError>> {
        self.fan_out(
            key,
            slots,
            |slot, epoch| {
                GetShardRequest {
                    key: key.to_string(),
                    shard_idx: slot,
                    ring_epoch: epoch,
                }
                .encode()
            },
            Op::Get,
        )
        .into_iter()
        .map(|r| {
            r.and_then(|payload| GetShardResponse::decode(&payload).map_err(ClientError::Wire))
        })
        .collect()
    }

    /// Reads the archive stored under `key`. The healthy path fetches
    /// the `k` data shards; any miss degrades to parity reconstruction
    /// from the surviving `≥ k` of `k + m`. Both paths verify the
    /// archive checksum, so the returned bytes are bit-identical to
    /// what was put or the call fails typed.
    pub fn get(&mut self, key: &str) -> Result<GetOutcome, ClusterError> {
        self.stats.gets.incr();
        let k = self.ring.data_shards as usize;
        let m = self.ring.parity_shards as usize;
        let mut rerouted = false;
        loop {
            let data_slots: Vec<u16> = (0..k as u16).collect();
            let results = self.fetch_slots(key, &data_slots);
            if results.iter().any(|r| {
                matches!(
                    r.as_ref().err().map(|e| match e {
                        ClientError::Server(r) =>
                            matches!(r.code, ErrorCode::Redirect | ErrorCode::NotMine),
                        _ => false,
                    }),
                    Some(true)
                )
            }) && !rerouted
            {
                rerouted = true;
                self.stats.redirects_followed.incr();
                self.refresh_ring()?;
                continue;
            }
            let mut stripe: Vec<Option<Vec<u8>>> = vec![None; k + m];
            let mut meta: Option<(u64, u64)> = None;
            let mut misses = 0usize;
            for (i, r) in results.into_iter().enumerate() {
                match r {
                    Ok(resp) => {
                        meta.get_or_insert((resp.total_len, resp.archive_fnv));
                        stripe[i] = Some(resp.shard);
                    }
                    Err(_) => {
                        self.stats.shard_failures.incr();
                        misses += 1;
                    }
                }
            }
            let degraded = misses > 0;
            if degraded {
                // Failover: pull parity and rebuild the missing slots.
                let parity_slots: Vec<u16> = (k as u16..(k + m) as u16).collect();
                for (i, r) in self.fetch_slots(key, &parity_slots).into_iter().enumerate() {
                    if let Ok(resp) = r {
                        meta.get_or_insert((resp.total_len, resp.archive_fnv));
                        stripe[k + i] = Some(resp.shard);
                    } else {
                        self.stats.shard_failures.incr();
                    }
                }
                let have = stripe.iter().filter(|s| s.is_some()).count();
                if have < k {
                    return Err(ClusterError::NotEnoughShards {
                        key: key.to_string(),
                        have,
                        need: k,
                    });
                }
                let shard_size = stripe.iter().flatten().map(|s| s.len()).max().unwrap_or(0);
                ReedSolomon::new(k, m)?.reconstruct(&mut stripe, shard_size)?;
                self.stats.degraded_reads.incr();
            }
            let Some((total_len, archive_fnv)) = meta else {
                return Err(ClusterError::NotEnoughShards {
                    key: key.to_string(),
                    have: 0,
                    need: k,
                });
            };
            let data: Vec<Vec<u8>> = stripe
                .into_iter()
                .take(k)
                .map(|s| s.expect("data slots filled by fetch or reconstruct"))
                .collect();
            let bytes = assemble(&data, total_len);
            if fnv1a(&bytes) != archive_fnv {
                return Err(ClusterError::Corrupt {
                    key: key.to_string(),
                });
            }
            return Ok(GetOutcome { bytes, degraded });
        }
    }

    /// Range-reads an `f32` archive stored under `key`: fetches the
    /// stripe (degraded if needed) and decodes only the requested
    /// sub-volume locally.
    pub fn get_range(
        &mut self,
        key: &str,
        spec: &cuszp_core::RangeSpec,
    ) -> Result<(Vec<f32>, cuszp_core::Dims, bool), ClusterError> {
        let got = self.get(key)?;
        let (samples, dims) = cuszp_core::decompress_range(&got.bytes, spec)?;
        Ok((samples, dims, got.degraded))
    }

    /// Anti-entropy pass: reads every reachable node's verified shard
    /// inventory, finds stripe slots missing from their owners (dead
    /// node that came back empty, corrupt shard dropped by the verify),
    /// rebuilds them from the surviving `≥ k`, and re-replicates with
    /// the repair flag. Safe to run any time; idempotent when healthy.
    pub fn scrub(&mut self) -> Result<ScrubReport, ClusterError> {
        let ids: Vec<u64> = self.ring.nodes().iter().map(|n| n.id).collect();
        let k = self.ring.data_shards as usize;
        let m = self.ring.parity_shards as usize;
        let mut report = ScrubReport::default();
        // (key, slot) -> present on its owner; key -> metadata.
        let mut present: HashMap<(String, u16), ()> = HashMap::new();
        let mut keys: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut reachable: Vec<u64> = Vec::new();
        for id in ids {
            // A pooled connection severed since its last use fails
            // exactly like a dead node for one call; reconnect once to
            // disambiguate before declaring the node unreachable.
            let mut answer = self.conn(id).and_then(|c| c.call(Op::ListShards, &[]));
            if matches!(answer, Err(ref e) if !matches!(e, ClientError::Server(_))) {
                self.conns.remove(&id);
                answer = self.conn(id).and_then(|c| c.call(Op::ListShards, &[]));
            }
            match answer {
                Ok(payload) => {
                    let list = ShardListResponse::decode(&payload).map_err(ClientError::Wire)?;
                    reachable.push(id);
                    for r in list.records {
                        keys.entry(r.key.clone())
                            .or_insert((r.total_len, r.archive_fnv));
                        // Only a shard on its *current* owner counts as
                        // placed; strays are invisible to gets anyway.
                        if self.ring.shard_owner(&r.key, r.shard_idx).map(|n| n.id) == Some(id) {
                            present.insert((r.key, r.shard_idx), ());
                        }
                    }
                }
                Err(e) => {
                    let _ = e;
                    self.conns.remove(&id);
                    report.unreachable_nodes += 1;
                }
            }
        }
        report.keys = keys.len();
        for (key, (total_len, archive_fnv)) in keys {
            let missing: Vec<u16> = (0..(k + m) as u16)
                .filter(|&slot| {
                    let owner = self.ring.shard_owner(&key, slot).map(|n| n.id);
                    // A slot on an unreachable node cannot be checked
                    // or repaired this pass.
                    owner.is_some_and(|o| reachable.contains(&o))
                        && !present.contains_key(&(key.clone(), slot))
                })
                .collect();
            if missing.is_empty() {
                continue;
            }
            // Rebuild the full stripe from whatever survives.
            let all_slots: Vec<u16> = (0..(k + m) as u16).collect();
            let mut stripe: Vec<Option<Vec<u8>>> = vec![None; k + m];
            for (i, r) in self.fetch_slots(&key, &all_slots).into_iter().enumerate() {
                if let Ok(resp) = r {
                    stripe[i] = Some(resp.shard);
                }
            }
            let have = stripe.iter().filter(|s| s.is_some()).count();
            if have < k {
                report.unrepairable += missing.len() as u64;
                continue;
            }
            let shard_size = stripe.iter().flatten().map(|s| s.len()).max().unwrap_or(0);
            if ReedSolomon::new(k, m)?
                .reconstruct(&mut stripe, shard_size)
                .is_err()
            {
                report.unrepairable += missing.len() as u64;
                continue;
            }
            for slot in missing {
                let shard = stripe[slot as usize]
                    .as_deref()
                    .expect("reconstruct fills every slot");
                let payload = PutShardRequest {
                    key: key.clone(),
                    shard_idx: slot,
                    ring_epoch: self.ring.epoch,
                    total_len,
                    archive_fnv,
                    flags: PUT_FLAG_REPAIR,
                    shard,
                }
                .encode();
                let owner = self
                    .ring
                    .shard_owner(&key, slot)
                    .map(|n| n.id)
                    .expect("slot in range");
                let answer = self.conn(owner).and_then(|c| c.call(Op::Put, &payload));
                match answer {
                    Ok(_) => {
                        report.repaired += 1;
                        self.stats.scrub_repairs.incr();
                    }
                    Err(e) => {
                        if !matches!(e, ClientError::Server(_)) {
                            self.conns.remove(&owner);
                        }
                        report.unrepairable += 1;
                    }
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_split_and_assemble_roundtrip() {
        for len in [1usize, 2, 3, 7, 64, 65, 1000] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let (shards, shard_size) = split_stripe(&bytes, 3, 2).unwrap();
            assert_eq!(shards.len(), 5);
            assert!(shards.iter().all(|s| s.len() == shard_size));
            let back = assemble(&shards[..3], len as u64);
            assert_eq!(back, bytes, "len {len}");
        }
        assert!(matches!(
            split_stripe(&[], 3, 2),
            Err(ClusterError::EmptyArchive)
        ));
    }

    #[test]
    fn stripe_survives_m_erasures() {
        let bytes: Vec<u8> = (0..777u32).map(|i| (i % 256) as u8).collect();
        let (shards, shard_size) = split_stripe(&bytes, 3, 2).unwrap();
        // Kill any two slots; reconstruction must restore the data.
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut stripe: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
                stripe[a] = None;
                stripe[b] = None;
                ReedSolomon::new(3, 2)
                    .unwrap()
                    .reconstruct(&mut stripe, shard_size)
                    .unwrap();
                let data: Vec<Vec<u8>> = stripe.into_iter().take(3).map(|s| s.unwrap()).collect();
                assert_eq!(assemble(&data, bytes.len() as u64), bytes, "kill {a},{b}");
            }
        }
    }
}
