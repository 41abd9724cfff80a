//! Physical query plans.
//!
//! veDB processes each query single-threaded in the engine (§VI); plans are
//! small Volcano-style trees whose operators the executor streams into one
//! another.
//! Plans are built programmatically (the reproduction has no SQL parser —
//! workload queries are constructed by the workloads crate).

use crate::query::expr::Expr;
use crate::row::Value;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` (non-null).
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

/// One aggregate column.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Input expression (ignored for `CountStar`).
    pub expr: Expr,
}

impl AggExpr {
    /// `COUNT(*)`.
    pub fn count_star() -> AggExpr {
        AggExpr {
            func: AggFunc::CountStar,
            expr: Expr::int(0),
        }
    }

    /// `SUM(expr)`.
    pub fn sum(expr: Expr) -> AggExpr {
        AggExpr {
            func: AggFunc::Sum,
            expr,
        }
    }

    /// `AVG(expr)`.
    pub fn avg(expr: Expr) -> AggExpr {
        AggExpr {
            func: AggFunc::Avg,
            expr,
        }
    }

    /// `MIN(expr)`.
    pub fn min(expr: Expr) -> AggExpr {
        AggExpr {
            func: AggFunc::Min,
            expr,
        }
    }

    /// `MAX(expr)`.
    pub fn max(expr: Expr) -> AggExpr {
        AggExpr {
            func: AggFunc::Max,
            expr,
        }
    }
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Full scan of a table's clustered tree with optional filter and
    /// projection — the push-down-eligible shape (§VI-A).
    SeqScan {
        /// Table name.
        table: String,
        /// Row filter (over the table's columns).
        filter: Option<Expr>,
        /// Projection (over the table's columns); `None` = all columns.
        project: Option<Vec<Expr>>,
    },
    /// Secondary-index prefix lookup followed by clustered row fetch.
    IndexLookup {
        /// Table name.
        table: String,
        /// Index name.
        index: String,
        /// Key prefix values.
        prefix: Vec<Value>,
        /// Residual filter over fetched rows.
        filter: Option<Expr>,
        /// Projection.
        project: Option<Vec<Expr>>,
    },
    /// Hash aggregation.
    HashAgg {
        /// Input plan.
        input: Box<Plan>,
        /// Group-by column indexes (into the input's output row).
        group_by: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggExpr>,
    },
    /// Hash equi-join (build = left, probe = right).
    HashJoin {
        /// Build side.
        left: Box<Plan>,
        /// Probe side.
        right: Box<Plan>,
        /// Join key columns of the left output.
        left_keys: Vec<usize>,
        /// Join key columns of the right output.
        right_keys: Vec<usize>,
        /// Residual filter over the concatenated row (left ++ right).
        filter: Option<Expr>,
        /// Projection over the concatenated row; `None` = all.
        project: Option<Vec<Expr>>,
    },
    /// Nested-loop join (arbitrary predicate; used when the optimizer
    /// picks it — Fig. 14's plan-change discussion).
    NestLoopJoin {
        /// Outer side.
        left: Box<Plan>,
        /// Inner side.
        right: Box<Plan>,
        /// Join predicate over the concatenated row.
        on: Expr,
        /// Projection over the concatenated row.
        project: Option<Vec<Expr>>,
    },
    /// Sort (+ optional limit).
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// Sort keys: (column index, descending).
        by: Vec<(usize, bool)>,
        /// Keep only the first `limit` rows.
        limit: Option<usize>,
    },
    /// Post-projection / filter over any input (secondary processing).
    Map {
        /// Input plan.
        input: Box<Plan>,
        /// Filter over the input row.
        filter: Option<Expr>,
        /// Projection over the input row.
        project: Option<Vec<Expr>>,
    },
}

impl Plan {
    /// Plain full scan.
    pub fn scan(table: &str) -> Plan {
        Plan::SeqScan {
            table: table.to_string(),
            filter: None,
            project: None,
        }
    }

    /// Filtered scan.
    pub fn scan_where(table: &str, filter: Expr) -> Plan {
        Plan::SeqScan {
            table: table.to_string(),
            filter: Some(filter),
            project: None,
        }
    }

    /// Aggregate this plan.
    pub fn agg(self, group_by: Vec<usize>, aggs: Vec<AggExpr>) -> Plan {
        Plan::HashAgg {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// Hash-join with `right`.
    pub fn hash_join(self, right: Plan, left_keys: Vec<usize>, right_keys: Vec<usize>) -> Plan {
        Plan::HashJoin {
            left: Box::new(self),
            right: Box::new(right),
            left_keys,
            right_keys,
            filter: None,
            project: None,
        }
    }

    /// Sort by `(col, desc)` keys.
    pub fn sort(self, by: Vec<(usize, bool)>) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            by,
            limit: None,
        }
    }

    /// Sort + limit.
    pub fn top_k(self, by: Vec<(usize, bool)>, k: usize) -> Plan {
        Plan::Sort {
            input: Box::new(self),
            by,
            limit: Some(k),
        }
    }

    /// Project columns of this plan's output.
    pub fn project(self, exprs: Vec<Expr>) -> Plan {
        Plan::Map {
            input: Box::new(self),
            filter: None,
            project: Some(exprs),
        }
    }

    /// Filter this plan's output.
    pub fn filtered(self, filter: Expr) -> Plan {
        Plan::Map {
            input: Box::new(self),
            filter: Some(filter),
            project: None,
        }
    }
}
