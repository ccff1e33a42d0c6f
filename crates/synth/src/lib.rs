//! # scout-synth
//!
//! Synthetic dataset generators standing in for the paper's proprietary
//! evaluation data (Blue Brain tissue, pig arterial tree, human lung
//! airway mesh, North-America road network), plus the guided query
//! sequence generator that scripts the §7.2 microbenchmarks. DESIGN.md §2
//! documents why each substitution preserves the evaluated behavior.

#![forbid(unsafe_code)]

mod arterial;
mod dataset;
mod guide;
mod lung;
mod neuron;
mod rng_util;
mod roads;
mod skeleton;
mod walk;

pub use arterial::{generate_arterial, ArterialParams};
pub use dataset::{Dataset, Domain};
pub use guide::{GuideGraph, ObjectAdjacency};
pub use lung::{generate_lung, LungParams};
pub use neuron::{generate_neurons, NeuronParams};
pub use roads::{generate_roads, RoadParams};
pub use walk::{generate_sequence, generate_sequences, GuidedSequence, SequenceParams};
