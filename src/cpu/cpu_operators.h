#pragma once

#include <memory>

#include "core/operator.h"

/// \file cpu_operators.h
/// CPU implementations of the batch operator functions (§5.3). One query
/// task is processed by one worker thread; parallelism comes from running
/// many tasks concurrently (the paper's data-parallel execution), so the
/// per-task code is single-threaded.
///
/// There is one operator per query shape. Every expression the operator
/// needs is compiled once at construction into a CompiledExpr program and
/// evaluated batch-at-a-time over pane runs — predicates produce selection
/// vectors, projections/aggregate inputs/group keys produce typed columns
/// (see docs/architecture.md, "Vectorized CPU operator path"). The
/// row-at-a-time baseline that bench/operator_kernels measures them against
/// lives in bench/scalar_baseline.h, not here.

namespace saber {

/// Creates the CPU operator for a query: stateless scan (σ/π), pane-partial
/// aggregation (α with GROUP-BY/HAVING, including session windows),
/// streaming θ-join, or the UDF operator.
std::unique_ptr<Operator> MakeCpuOperator(const QueryDef* query);

}  // namespace saber
