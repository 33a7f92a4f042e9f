#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/query.h"
#include "harness.h"

/// \file checks.h
/// Output checks made apart from the engine. Each workload's result rows are
/// compared with the benchmark's own evaluation of the query over the
/// generated stream, or with a property the query's semantics require, and
/// a short prefix with ReferenceEvaluate (src/reference/). Nothing is
/// compared with a stored copy of an earlier run's output.
///
/// The stream is `block` (syn::Generate, 64 tuples per timestamp) repeated
/// with shifted timestamps; `tuples` is how many tuples of it were fed.

namespace perfbench {

struct CheckResult {
  bool ok = true;
  std::string what;  ///< first mismatch, empty when ok
};

// remote_select: `select * ... where a2 < kSelectBelow`.
inline constexpr int kSelectBelow = 10;
/// Digest of the selection over the first `blocks` blocks of the in-order
/// stream.
RowDigest SelectDigest(const std::vector<uint8_t>& block, int64_t blocks);
/// The selection's rows over the first `tuples` tuples (self-test scale).
std::vector<uint8_t> SelectRows(const std::vector<uint8_t>& block,
                                int64_t tuples);
CheckResult CheckDigest(const RowDigest& got, const RowDigest& want);

/// `got` (the sink's first rows) must start with `want` byte for byte.
CheckResult CheckPrefix(const std::vector<uint8_t>& got,
                        const std::vector<uint8_t>& want, size_t row_size);

// hybrid_two_query, PROJ6: one row per input tuple; sampled rows carry the
// tuple's timestamp and each attribute through `chain` steps of x*3+1.
CheckResult CheckProjection(
    int64_t rows, int64_t tuples,
    const std::vector<std::pair<int64_t, std::vector<uint8_t>>>& samples,
    const saber::Schema& out, const std::vector<uint8_t>& block, int chain);

/// One expected aggregation row.
struct AggRow {
  int64_t ts = 0;
  int64_t key = 0;
  int64_t cnt = 0;
  double sum = 0;
};

// hybrid_two_query, GROUP-BY1 over count windows [rows size slide s]: every
// window counts exactly `size` tuples, the number of windows follows from
// the input length, and sums match within `rel_tol`.
std::vector<AggRow> CountWindowRows(const std::vector<uint8_t>& block,
                                    int64_t tuples, int64_t size,
                                    int64_t slide);
CheckResult CheckCountWindows(const std::vector<uint8_t>& rows,
                              const saber::Schema& out,
                              const std::vector<uint8_t>& block, int64_t tuples,
                              int64_t size, int64_t slide, double rel_tol);

// small_task_agg, GROUP-BY o over time windows [range r slide s]: each
// window's per-group cnt and sum equal a one-pass evaluation, and the cnt
// values of a window sum to the tuples whose timestamps fall in it.
std::vector<AggRow> TimeWindowRows(const std::vector<uint8_t>& block,
                                   int64_t tuples, int64_t range, int64_t slide,
                                   int groups);
/// `got` and `windows` come from a Keep::kWindowDigest sink.
CheckResult CheckTimeWindows(const RowDigest& got,
                             const std::vector<std::pair<int64_t, int64_t>>& windows,
                             const saber::Schema& out,
                             const std::vector<uint8_t>& block, int64_t tuples,
                             int64_t range, int64_t slide, int groups);

/// Serializes expected rows in `out`'s layout (ts, key, cnt, sum).
std::vector<uint8_t> SerializeAggRows(const std::vector<AggRow>& rows,
                                      const saber::Schema& out);

/// ReferenceEvaluate over the first `tuples` tuples of the stream.
std::vector<uint8_t> ReferencePrefix(const saber::QueryDef& def,
                                     const std::vector<uint8_t>& block,
                                     int64_t tuples);

/// Shows that every check accepts the right output and rejects a wrong one
/// (one row dropped, one value changed, two rows swapped), and that the
/// benchmark's own evaluations agree with ReferenceEvaluate. Returns the
/// process exit code.
int RunSelfTest();

}  // namespace perfbench
