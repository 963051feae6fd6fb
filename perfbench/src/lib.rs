//! A seeded end-to-end benchmark of the dxml engine: three text-driven
//! workloads, known-answer checks on every op, and a traced run that
//! attributes op time to layers. See `README.md` next to this crate.

#![forbid(unsafe_code)]

pub mod design;
pub mod gen;
pub mod host;
pub mod ingest;
pub mod run;
pub mod trace;
