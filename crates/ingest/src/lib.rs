//! Staged, bounded multi-tenant ingestion front-end.
//!
//! Production FBDetect sits behind a collection pipeline that can lose,
//! reorder, duplicate, and refuse data; the earlier PRs simulated
//! ingestion as direct `TsdbStore::append` loops, which exercises none of
//! that. This crate is the real front door:
//!
//! - [`wire`]: a compact dictionary-compressed batch format for
//!   `(tenant, series, timestamp, value)` samples;
//! - [`validate`]: wire-boundary classification of the five collector
//!   fault shapes (dropped, duplicated-timestamp, NaN burst, stuck
//!   constant, late window), degrading each to counted health signals
//!   instead of failed scans;
//! - [`quota`]: deterministic per-tenant token buckets on the simulated
//!   clock, with violations feeding the `fbdetect-core` quarantine;
//! - [`pipeline`]: bounded crossbeam-channel stages
//!   (decode → validate + route → shard append) with explicit
//!   backpressure, oldest-first counted shedding, and a single-threaded
//!   [`reference_ingest`](pipeline::reference_ingest) oracle the threaded
//!   path is byte-identical to.
//!
//! Past decoding, the unit of work is a per-series run: the validator
//! resolves each batch's series dictionary once and hands the appenders
//! contiguous runs of one series' points, grouped by store shard.
//!
//! The whole path is `fbd-lint` supervised: panic-free library code, no
//! wall clocks, no OS entropy, no hash-ordered iteration.
#![forbid(unsafe_code)]

#![warn(missing_docs)]

#[cfg(test)]
mod oracle;
pub mod pipeline;
pub mod quota;
pub mod validate;
pub mod wire;

pub use pipeline::{reference_ingest, IngestConfig, IngestPipeline, IngestStats, PipelineClosed};
pub use quota::{QuotaConfig, TenantQuotas};
pub use validate::{FaultCounts, Run, ValidatedBatch, Validator, ValidatorConfig};
pub use wire::{decode_batch, encode_batch, peek_point_count, SampleBatch, WireError, WirePoint};
