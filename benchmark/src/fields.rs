//! Seeded workload inputs.
//!
//! The program under test only ever sees these generated fields. A seed
//! changes them in two ways that keep a workload's character: a pick
//! among fields of the same generator class (the two Nyx densities) and
//! a roll of the field along its slowest axis by a seeded number of
//! whole slow-axis units.

use cuszp_datagen::noise::hash64;
use cuszp_datagen::{dataset_fields, generate, DatasetKind, Scale};
use cuszp_predictor::Dims;

/// One generated input field.
#[derive(Debug, Clone)]
pub struct Input {
    /// `dataset/field@roll`, e.g. `Nyx/baryon_density@37`.
    pub label: String,
    /// Logical dimensions.
    pub dims: Dims,
    /// Row-major samples.
    pub data: Vec<f32>,
}

impl Input {
    /// Uncompressed size in bytes.
    pub fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

/// A field slot of a workload: the dataset and the same-class fields a
/// seed picks from.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Dataset the field comes from.
    pub dataset: DatasetKind,
    /// Candidate field names; the seed picks one.
    pub candidates: &'static [&'static str],
}

/// SplitMix64 over the generators' own hash: the benchmark's only random
/// source, so a seed fixes every input, slab and key schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = hash64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Generates the inputs of `slots` for `seed` at `scale`.
pub fn generate_inputs(slots: &[Slot], seed: u64, scale: Scale) -> Result<Vec<Input>, String> {
    let mut rng = Rng::new(seed, 1);
    slots
        .iter()
        .map(|slot| {
            let name = slot.candidates[rng.below(slot.candidates.len())];
            let spec = dataset_fields(slot.dataset)
                .into_iter()
                .find(|s| s.name == name)
                .ok_or_else(|| format!("{} has no field {name}", slot.dataset.name()))?;
            let field = generate(&spec, scale);
            let units = field.dims.slow_extent();
            let roll = rng.below(units);
            let mut data = field.data;
            data.rotate_left(roll * field.dims.elems_per_slow());
            Ok(Input {
                label: format!("{}/{name}@{roll}", slot.dataset.name()),
                dims: field.dims,
                data,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOTS: &[Slot] = &[
        Slot {
            dataset: DatasetKind::Hacc,
            candidates: &["vx", "vy", "vz"],
        },
        Slot {
            dataset: DatasetKind::CesmAtm,
            candidates: &["LANDFRAC"],
        },
    ];

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = generate_inputs(SLOTS, 5, Scale::Tiny).unwrap();
        let b = generate_inputs(SLOTS, 5, Scale::Tiny).unwrap();
        let c = generate_inputs(SLOTS, 6, Scale::Tiny).unwrap();
        assert_eq!(a[0].label, b[0].label);
        assert_eq!(a[0].data, b[0].data);
        assert_eq!(a[1].data, b[1].data);
        assert!(a.iter().zip(&c).any(|(x, y)| x.data != y.data));
    }

    #[test]
    fn a_roll_permutes_whole_slow_units() {
        let inputs = generate_inputs(SLOTS, 9, Scale::Tiny).unwrap();
        let mask = &inputs[1];
        let plain = generate(
            &dataset_fields(DatasetKind::CesmAtm)
                .into_iter()
                .find(|s| s.name == "LANDFRAC")
                .unwrap(),
            Scale::Tiny,
        );
        let row = plain.dims.elems_per_slow();
        let roll: usize = mask.label.rsplit('@').next().unwrap().parse().unwrap();
        assert_eq!(&mask.data[..row], &plain.data[roll * row..(roll + 1) * row]);
    }
}
