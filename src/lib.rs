//! # veDB reproduction — umbrella crate
//!
//! A from-scratch Rust reproduction of *"Accelerating Cloud-Native
//! Databases with Distributed PMem Stores"* (ICDE 2023): the veDB
//! compute/storage-separated database engine, the paper's **AStore**
//! disaggregated PMem store with one-sided RDMA, the **Extended Buffer
//! Pool**, and the **query push-down** framework — all running over a
//! deterministic virtual-time simulation of the paper's Table I cluster.
//!
//! This crate re-exports the public API of the workspace members and hosts
//! the runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`).
//!
//! ```no_run
//! use vedb::prelude::*;
//!
//! let fabric = StorageFabric::build(ClusterSpec::paper_default(), 64 << 20, 1 << 20);
//! let mut ctx = SimCtx::new(0, 42);
//! let db = Db::open(&mut ctx, &fabric, DbConfig::builder().build().unwrap()).unwrap();
//! db.define_schema(|cat| {
//!     cat.define("users")
//!         .col("id", ColumnType::Int)
//!         .col("name", ColumnType::Str)
//!         .pk(&["id"])
//!         .build();
//! });
//! db.create_tables(&mut ctx).unwrap();
//! // One transaction: `Ok(true)` commits, `Ok(false)` or an error rolls back.
//! let committed = db
//!     .transact(&mut ctx, |ctx, txn| {
//!         db.insert(ctx, txn, "users", vec![Value::Int(1), Value::Str("ada".into())])?;
//!         Ok(true)
//!     })
//!     .unwrap();
//! assert!(committed);
//! ```

pub use vedb_astore as astore;
pub use vedb_blobstore as blobstore;
pub use vedb_core as core;
pub use vedb_pagestore as pagestore;
pub use vedb_pmem as pmem;
pub use vedb_rdma as rdma;
pub use vedb_sim as sim;
pub use vedb_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use vedb_astore::{AppendOpts, SegmentOpts};
    pub use vedb_core::db::{Db, DbConfig, DbConfigBuilder, LogBackendKind, StorageFabric};
    pub use vedb_core::ebp::EbpConfig;
    pub use vedb_core::query::{execute, AggExpr, AggFunc, CmpOp, Expr, Plan, QuerySession};
    pub use vedb_core::{Catalog, ColumnType, EngineError, FlushPolicy, Row, TxnHandle, Value};
    pub use vedb_sim::{ClusterSpec, LatencyModel, SimCtx, VTime};
}
