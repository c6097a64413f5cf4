//! Seeded end-to-end benchmark of the Condor-G simulation suite.
//!
//! The `gridbench` binary runs one workload once and prints one JSON line;
//! `run.py` next to this crate builds it, repeats it for a time budget,
//! gates correctness and reports medians. See `README.md`.

pub mod calibrate;
pub mod layers;
pub mod ledger;
pub mod stats;
pub mod workloads;
