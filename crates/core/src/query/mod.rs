//! Query processing: expressions, plans, the local executor, and the
//! push-down framework (§VI). Filter, projection and aggregation exist
//! once, in the private `pipeline` module both executors feed.

mod chains;
pub mod exec;
pub mod expr;
mod pipeline;
pub mod plan;
pub mod pushdown;

pub use exec::{execute, QuerySession};
pub use expr::{CmpOp, Expr};
pub use plan::{AggExpr, AggFunc, Plan};
