//! In-situ cosmology scenario: a simulation loop produces 3-D snapshots
//! that must be compressed between timesteps — the use case the paper's
//! introduction motivates with HACC's petabyte output streams. Measures
//! wall-clock (de)compression throughput per engine and verifies the
//! bound on every snapshot.
//!
//! ```sh
//! cargo run --release --example insitu_cosmology
//! ```

use cuszp::datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp::metrics::{gbps, verify_error_bound};
use cuszp::{Compressor, Config, ErrorBound, ReconstructEngine};
use std::time::Instant;

fn main() {
    let compressor = Compressor::new(Config {
        error_bound: ErrorBound::Relative(1e-4),
        ..Config::default()
    });

    // "Timesteps": perturb the base Nyx field so each snapshot differs.
    let spec = dataset_fields(DatasetKind::Nyx)[0];
    let base = generate(&spec, Scale::Small);
    let n_steps = 3;
    println!(
        "in-situ loop: {} snapshots of {} ({:.1} MB each), eb = 1e-4 (rel)\n",
        n_steps,
        spec.name,
        base.bytes() as f64 / 1e6
    );

    let mut archived_bytes = 0usize;
    for step in 0..n_steps {
        // Advance the "simulation": smooth drift plus slight growth.
        let drift = step as f32 * 0.01;
        let snapshot: Vec<f32> = base
            .data
            .iter()
            .map(|&x| x * (1.0 + drift) + drift)
            .collect();

        let t0 = Instant::now();
        let (archive, stats) = compressor
            .compress_with_stats(&snapshot, base.dims)
            .expect("compression failed");
        let t_comp = t0.elapsed();
        let bytes = archive.to_bytes();
        archived_bytes += bytes.len();

        println!(
            "step {step}: CR {:6.2}x, {} | compress {:.2} GB/s wall",
            stats.compression_ratio(),
            stats.workflow.name(),
            gbps(stats.original_bytes, t_comp),
        );

        // Decompress with each engine; the fine-grained partial-sum is
        // the cuSZ+ contribution, the coarse engine is the cuSZ baseline.
        for engine in ReconstructEngine::ALL {
            let t0 = Instant::now();
            let (recon, _) = cuszp::decompress_with_engine::<f32>(&bytes, engine).unwrap();
            let t_dec = t0.elapsed();
            let eb = compressor.config().error_bound.absolute(&snapshot);
            verify_error_bound(&snapshot, &recon, eb).expect("bound");
            println!(
                "        decompress[{:<16}] {:.2} GB/s wall",
                engine.name(),
                gbps(stats.original_bytes, t_dec)
            );
        }
    }

    println!(
        "\narchived {} snapshots: {:.2} MB total (vs {:.1} MB raw)",
        n_steps,
        archived_bytes as f64 / 1e6,
        (base.bytes() * n_steps) as f64 / 1e6
    );
}
