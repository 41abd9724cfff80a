//! The paper's motivating customer scenario (§VII-A, Figure 8): batched
//! order processing with wide (2 KB) inserts and hot vendor-balance
//! updates, with a 10,000+ TPS target.
//!
//! Runs the workload against both deployments at several concurrency
//! levels and reports throughput and latency percentiles.
//!
//! Run with: `cargo run --release --example order_processing`

use std::sync::Arc;

use vedb::prelude::*;
use vedb::workloads::driver::{run_trial, DriverConfig};
use vedb::workloads::orders;

fn main() {
    println!(
        "internal order-processing workload: {}-byte rows, batches of {}, {} vendors\n",
        orders::ROW_PAYLOAD,
        orders::BATCH,
        orders::VENDORS
    );
    println!(
        "{:>20} {:>8} {:>10} {:>10} {:>10}",
        "config", "clients", "TPS", "p50", "p95"
    );

    for (name, log) in [
        ("veDB", LogBackendKind::BlobStore),
        ("veDB+AStore", LogBackendKind::AStore),
    ] {
        let fabric = StorageFabric::build(ClusterSpec::paper_default(), 128 << 20, 1 << 20);
        let mut ctx = SimCtx::new(0, 7);
        let db = Db::open(
            &mut ctx,
            &fabric,
            DbConfig::builder()
                .log(log)
                .bp_pages(2048)
                .ring_segments(12)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.define_schema(orders::define_schema);
        db.create_tables(&mut ctx).unwrap();
        orders::load(&mut ctx, &db).unwrap();

        let mut start = ctx.now();
        for clients in [1usize, 8, 32, 64] {
            let cfg = DriverConfig {
                clients,
                warmup: VTime::from_millis(20),
                measure: VTime::from_millis(120),
                seed: 11,
                start,
            };
            start = start + cfg.warmup + cfg.measure;
            let db2 = Arc::clone(&db);
            let r = run_trial(&cfg, |ctx, _| orders::order_batch(ctx, &db2));
            println!(
                "{name:>20} {clients:>8} {:>10.0} {:>10} {:>10}",
                r.throughput(),
                format!("{}", r.latency.p50()),
                format!("{}", r.latency.p95()),
            );
        }
    }
    println!("\nPaper: with AStore the batched transaction reaches the 10k-TPS target");
    println!("with 64 clients; without it, more than 512 clients are needed (Fig. 8).");
}
