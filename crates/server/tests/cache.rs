//! Hot-slab cache behavior over a real loopback server: repeated range
//! reads are served from cache (observable through the hit counters and
//! bit-identical bytes), tiny budgets force evictions, a different
//! archive hash is a different key space, and concurrent clients
//! hammering the same hot chunk never see torn reads.

use cuszp_core::{Compressor, Config, Dims, Dtype, ErrorBound, RangeSpec, WorkflowMode};
use cuszp_parallel::WorkerPool;
use cuszp_server::{Client, DecompressMode, Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;

const DIMS: Dims = Dims::D2 { ny: 48, nx: 2048 };
const CHUNK: usize = 16 * 2048; // -> 3 chunks of 16 slow-rows each
const EB: f64 = 1e-3;

fn start_server(
    config: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve());
    (addr, handle, join)
}

fn stop_server(addr: SocketAddr, join: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown_server().expect("shutdown ack");
    join.join().expect("serve thread panicked").expect("serve");
}

fn test_field(n: usize, phase: f32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let x = i as f32 * 0.002 + phase;
            let rough = if i % 97 == 0 {
                (i % 13) as f32 * 0.3
            } else {
                0.0
            };
            x.sin() * 40.0 + rough
        })
        .collect()
}

/// A chunked f32 archive of the loopback test geometry.
fn archive(phase: f32) -> Vec<u8> {
    let data = test_field(DIMS.len(), phase);
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(EB),
        workflow: WorkflowMode::Auto,
        ..Config::default()
    });
    compressor
        .compress_chunked_with(&data, DIMS, CHUNK, &WorkerPool::new(2))
        .expect("compress")
        .to_bytes()
}

/// The locally computed reference slice for a spec, as LE bytes.
fn reference_slice(bytes: &[u8], spec: &RangeSpec) -> Vec<u8> {
    let (data, _) = cuszp_core::decompress_range::<f32>(bytes, spec).expect("local range");
    data.iter().flat_map(|x| x.to_le_bytes()).collect()
}

#[test]
fn second_identical_read_is_a_cache_hit_with_identical_bytes() {
    let bytes = archive(0.0);
    let spec = RangeSpec::new(vec![4..29, 100..900]); // straddles chunks 0 and 1
    let reference = reference_slice(&bytes, &spec);

    let (addr, handle, join) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let cold = client
        .get_range(&bytes, &spec, DecompressMode::Strict)
        .expect("cold read");
    let s1 = handle.stats();
    assert_eq!(cold.dtype, Dtype::F32);
    assert_eq!(cold.dims, Dims::D2 { ny: 25, nx: 800 });
    assert_eq!(cold.data, reference);
    assert_eq!(s1.cache_hits, 0, "a cold cache cannot hit");
    assert_eq!(s1.cache_misses, 2, "two intersecting chunks, both cold");

    let hot = client
        .get_range(&bytes, &spec, DecompressMode::Strict)
        .expect("hot read");
    let s2 = handle.stats();
    assert_eq!(hot.data, cold.data, "cached bytes must be bit-identical");
    assert_eq!(s2.cache_hits, 2, "both chunks now served from cache");
    assert_eq!(s2.cache_misses, 2, "no new misses on the hot read");
    assert_eq!(s2.cache_evictions, 0);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn tiny_budget_forces_evictions_and_stays_correct() {
    let bytes = archive(0.0);
    // One decoded slab is 16 rows * 2048 cols * 4 bytes = 128 KiB;
    // budget one and a half slabs so every second slab evicts the first.
    let (addr, handle, join) = start_server(ServerConfig {
        cache_bytes: 192 * 1024,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");

    let full = RangeSpec::new(vec![0..48, 0..2048]);
    let reference = reference_slice(&bytes, &full);
    for round in 0..3 {
        let resp = client
            .get_range(&bytes, &full, DecompressMode::Strict)
            .expect("full-range read");
        assert_eq!(resp.data, reference, "round {round} bytes diverged");
    }
    let s = handle.stats();
    assert!(
        s.cache_evictions > 0,
        "a 3-slab working set over a 1.5-slab budget must evict"
    );
    assert_eq!(
        s.cache_hits + s.cache_misses,
        9,
        "3 rounds x 3 chunks all go through the cache"
    );

    drop(client);
    stop_server(addr, join);
}

#[test]
fn a_different_archive_is_a_different_key_space() {
    let a = archive(0.0);
    let b = archive(1.0); // different content -> different FNV hash
    let spec = RangeSpec::new(vec![0..16, 0..2048]); // exactly chunk 0
    let ref_a = reference_slice(&a, &spec);
    let ref_b = reference_slice(&b, &spec);
    assert_ne!(ref_a, ref_b, "fields must actually differ");

    let (addr, handle, join) = start_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    let got_a = client
        .get_range(&a, &spec, DecompressMode::Strict)
        .expect("archive a");
    assert_eq!(got_a.data, ref_a);
    assert_eq!(handle.stats().cache_misses, 1);

    // Same spec, different archive: must miss, and must serve b's data.
    let got_b = client
        .get_range(&b, &spec, DecompressMode::Strict)
        .expect("archive b");
    assert_eq!(got_b.data, ref_b, "stale slab served across archives");
    let s = handle.stats();
    assert_eq!(s.cache_misses, 2, "archive b's chunk 0 is a fresh key");
    assert_eq!(s.cache_hits, 0);

    // And both stay hot independently.
    assert_eq!(
        client
            .get_range(&a, &spec, DecompressMode::Strict)
            .expect("a again")
            .data,
        ref_a
    );
    assert_eq!(handle.stats().cache_hits, 1);

    drop(client);
    stop_server(addr, join);
}

#[test]
fn concurrent_clients_hammering_one_hot_chunk_see_no_torn_reads() {
    let bytes = archive(0.0);
    let spec = RangeSpec::new(vec![16..32, 0..2048]); // exactly chunk 1
    let reference = reference_slice(&bytes, &spec);

    let (addr, handle, join) = start_server(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    std::thread::scope(|s| {
        for _ in 0..6 {
            let bytes = &bytes;
            let spec = &spec;
            let reference = &reference;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..5 {
                    let resp = client
                        .get_range(bytes, spec, DecompressMode::Strict)
                        .expect("concurrent read");
                    assert_eq!(&resp.data, reference, "torn or stale read");
                }
            });
        }
    });

    let s = handle.stats();
    assert_eq!(s.cache_hits + s.cache_misses, 30, "6 clients x 5 reads");
    assert!(
        s.cache_hits >= 24,
        "at most one miss per worker engine warming the slab; got {} hits",
        s.cache_hits
    );

    stop_server(addr, join);
}

#[test]
fn zero_budget_disables_the_cache_entirely() {
    let bytes = archive(0.0);
    let spec = RangeSpec::new(vec![0..16, 0..2048]);
    let reference = reference_slice(&bytes, &spec);

    let (addr, handle, join) = start_server(ServerConfig {
        cache_bytes: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for _ in 0..2 {
        let resp = client
            .get_range(&bytes, &spec, DecompressMode::Strict)
            .expect("uncached read");
        assert_eq!(resp.data, reference);
    }
    let s = handle.stats();
    assert_eq!(
        (s.cache_hits, s.cache_misses, s.cache_evictions),
        (0, 0, 0),
        "a disabled cache must not even count"
    );

    drop(client);
    stop_server(addr, join);
}
