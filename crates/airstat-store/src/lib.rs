//! airstat-store: a sharded, snapshot-isolated aggregation store with a
//! parallel, cached query engine.
//!
//! The legacy [`airstat_telemetry::backend::Backend`] is a single
//! monolithic aggregate: one dedup table, one set of per-window maps,
//! serial ingest, borrowing queries. This crate subsumes it for the
//! production path:
//!
//! * [`store::ShardedStore`] hash-partitions reports by
//!   `(window, device)` across a configurable shard count and ingests
//!   shards in parallel through [`exec::run_ordered`] — byte-identical
//!   results for every shard and thread count.
//! * [`store::Snapshot`] freezes an epoch via cheap copy-on-write
//!   `seal()`, so analytics run against immutable state while the next
//!   epoch fills.
//! * [`query::QueryEngine`] executes typed [`query::QueryPlan`]s per
//!   shard and merges the partials in globally canonical order, with an
//!   epoch-keyed, byte-budgeted LRU result cache whose counters surface
//!   in [`query::StoreStats`].
//! * [`query::FleetQuery`] abstracts the query surface over both the
//!   legacy backend and the engine, which is what the differential
//!   equivalence tests lean on.
//!
//! # Module map
//!
//! | module | contents |
//! |---|---|
//! | [`exec`] | [`exec::run_ordered`] deterministic ordered fan-out |
//! | [`shard`] | [`shard::StoreShard`] per-shard tables + order-independent dedup |
//! | [`store`] | [`store::ShardedStore`], [`store::Snapshot`], [`store::ReportSink`] |
//! | [`query`] | [`query::QueryPlan`], [`query::QueryEngine`], [`query::ResultCache`] |
//! | [`columnar`] | [`columnar::ColumnarShard`] packed struct-of-arrays read layout |
//! | [`segment`] | on-disk segments, manifest, tail log, [`segment::DurableStore`] |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod columnar;
pub mod exec;
pub mod query;
pub mod segment;
pub mod shard;
pub mod store;

pub use columnar::ColumnarShard;
pub use query::{
    FleetQuery, QueryBackend, QueryEngine, QueryPlan, QueryValue, ResultCache, StoreStats,
};
pub use segment::{
    DurableStore, PersistenceStats, RecoveryStats, SegmentError, SEGMENT_SCHEMA_VERSION,
};
pub use shard::StoreShard;
pub use store::{
    ReportSink, SealStats, SegmentStack, ShardedStore, Snapshot, StoreConfig, DEFAULT_SHARDS,
};
