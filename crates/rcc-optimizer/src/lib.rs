#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! Cost-based query optimizer with integrated currency & consistency
//! constraints — the paper's core contribution (Sec. 3.2).
//!
//! Pipeline:
//!
//! 1. **Bind** ([`graph`]): resolve a parsed SELECT against the catalog into
//!    a [`graph::QueryGraph`] — operands (base-table instances), equi-join
//!    edges, pushed filters, projections, aggregates — inlining FROM-clause
//!    subqueries and decorrelating `EXISTS`/`IN` into semi-joins. Currency
//!    clauses from every block are resolved to operand sets.
//! 2. **Normalize** ([`constraint`]): union all clauses and merge
//!    overlapping consistency classes with the min bound until disjoint
//!    (Sec. 3.2.1). No clause anywhere ⇒ the tight default (bound 0, all
//!    operands mutually consistent) so plain queries keep their traditional
//!    semantics.
//! 3. **Enumerate & cost** ([`optimize`]): per-operand access paths (remote
//!    query, or matching cached views wrapped in SwitchUnion + currency
//!    guard — [`viewmatch`]), then dynamic-programming join enumeration.
//!    Plans are pruned with the paper's *conflict* / *violation* rules as
//!    they are built and the *satisfaction* rule at the root
//!    ([`property`]); local alternatives whose region can never meet the
//!    bound (`B < d`) are discarded at compile time. SwitchUnion branches
//!    are costed with `c = p·c_local + (1−p)·c_remote + c_cg`,
//!    `p = clamp((B−d)/f, 0, 1)` ([`cost`], Sec. 3.2.4).
//!
//! The output is a [`physical::PhysicalPlan`] executed by `rcc-executor`.
//! Where SQL Server uses a full Cascades memo, we use per-operand
//! alternative sets plus Selinger-style DP — the same search space for the
//! paper's workloads, with identical property machinery.

pub mod constraint;
pub mod cost;
pub mod expr;
pub mod graph;
pub mod optimize;
pub mod ordering;
pub mod physical;
pub mod property;
pub mod slots;
pub mod sqlgen;
pub mod viewmatch;

pub use constraint::{CCClass, CCConstraint, OperandId};
pub use expr::{AggCall, AggFunc, BoundExpr};
pub use graph::{bind_one_table, bind_select, bind_select_slots, JoinEdge, Operand, QueryGraph};
pub use optimize::{optimize, OptimizerConfig, PlanChoice, Role};
pub use ordering::{delivered_order, OrderProp};
pub use physical::{CurrencyGuard, PhysicalPlan};
pub use property::{DeliveredProperty, RegionTag};
pub use slots::slot_domains;
