#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <random>
#include <vector>

#include "core/operator.h"
#include "core/query.h"
#include "cpu/cpu_operators.h"
#include "relational/tuple_ref.h"
#include "runtime/byte_buffer.h"

/// \file test_util.h
/// Shared helpers: synthetic stream construction and a miniature single-
/// threaded driver that splits streams into batches, runs an Operator's
/// ProcessBatch per batch and Assemble in task order — the engine data path
/// without the concurrency, used to property-test operators against the
/// reference model under arbitrary batch splits.

namespace saber::testing {

/// Builds a serialized stream from a row-major table of doubles; column 0 is
/// the int64 timestamp.
inline std::vector<uint8_t> MakeStream(const Schema& schema,
                                       const std::vector<std::vector<double>>& rows) {
  std::vector<uint8_t> out(rows.size() * schema.tuple_size());
  for (size_t i = 0; i < rows.size(); ++i) {
    TupleWriter w(out.data() + i * schema.tuple_size(), &schema);
    for (size_t f = 0; f < rows[i].size(); ++f) {
      if (f == 0) {
        w.SetInt64(0, static_cast<int64_t>(rows[i][0]));
      } else {
        w.SetNumeric(f, rows[i][f]);
      }
    }
  }
  return out;
}

/// Random synthetic stream: timestamps nondecreasing with random gaps, other
/// attributes uniform ints/floats in small ranges.
inline std::vector<uint8_t> RandomStream(const Schema& schema, size_t n,
                                         uint32_t seed, int64_t max_ts_gap = 3,
                                         int attr_range = 10) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> gap(0, max_ts_gap);
  std::uniform_int_distribution<int> attr(0, attr_range - 1);
  std::vector<uint8_t> out(n * schema.tuple_size());
  int64_t ts = 0;
  for (size_t i = 0; i < n; ++i) {
    ts += gap(rng);
    TupleWriter w(out.data() + i * schema.tuple_size(), &schema);
    w.SetInt64(0, ts);
    for (size_t f = 1; f < schema.num_fields(); ++f) {
      switch (schema.field(f).type) {
        case DataType::kInt32: w.SetInt32(f, attr(rng)); break;
        case DataType::kInt64: w.SetInt64(f, attr(rng)); break;
        case DataType::kFloat: w.SetFloat(f, static_cast<float>(attr(rng))); break;
        case DataType::kDouble: w.SetDouble(f, attr(rng)); break;
      }
    }
  }
  return out;
}

/// Splits a single-input stream into batches of `batch_tuples` and runs the
/// operator's full batch+assembly path in task order.
inline ByteBuffer RunSingleInput(const Operator& op, const QueryDef& q,
                                 const std::vector<uint8_t>& stream,
                                 size_t batch_tuples) {
  const Schema& s = q.input_schema[0];
  const size_t tsz = s.tuple_size();
  const size_t n = stream.size() / tsz;
  auto state = op.MakeAssemblyState();
  ByteBuffer output;
  int64_t prev_last_ts = -1;
  int64_t task_id = 0;
  for (size_t i = 0; i < n; i += batch_tuples) {
    const size_t m = std::min(batch_tuples, n - i);
    TaskContext ctx;
    ctx.task_id = task_id;
    ctx.query = &q;
    ctx.num_inputs = 1;
    StreamBatch& b = ctx.input[0];
    b.data.seg1 = stream.data() + i * tsz;
    b.data.len1 = m * tsz;
    b.tuple_size = tsz;
    b.first_index = static_cast<int64_t>(i);
    b.first_ts = TupleRef(b.data.seg1, &s).timestamp();
    b.last_ts = TupleRef(b.data.seg1 + (m - 1) * tsz, &s).timestamp();
    b.prev_last_ts = prev_last_ts;
    TaskResult result;
    result.task_id = task_id++;
    op.ProcessBatch(ctx, &result);
    op.Assemble(result, state.get(), &output);
    prev_last_ts = b.last_ts;
  }
  return output;
}

/// Splits a two-input stream pair at common timestamp cuts (every
/// `cut_interval` time units of combined data) and runs the join path. The
/// history passed to each task is the full prefix of the opposite stream —
/// a superset of what the dispatcher retains, which the window-overlap
/// filter reduces to the same effective partner set.
inline ByteBuffer RunJoin(const Operator& op, const QueryDef& q,
                          const std::vector<uint8_t>& s0,
                          const std::vector<uint8_t>& s1, int64_t cut_interval) {
  const Schema& ls = q.input_schema[0];
  const Schema& rs = q.input_schema[1];
  const size_t lsz = ls.tuple_size(), rsz = rs.tuple_size();
  const size_t nl = s0.size() / lsz, nr = s1.size() / rsz;
  auto state = op.MakeAssemblyState();
  ByteBuffer output;

  auto ts_of = [](const std::vector<uint8_t>& v, size_t i, const Schema& s) {
    return TupleRef(v.data() + i * s.tuple_size(), &s).timestamp();
  };
  int64_t max_ts = -1;
  if (nl > 0) max_ts = std::max(max_ts, ts_of(s0, nl - 1, ls));
  if (nr > 0) max_ts = std::max(max_ts, ts_of(s1, nr - 1, rs));

  size_t il = 0, ir = 0;
  int64_t prev_l_ts = -1, prev_r_ts = -1;
  int64_t task_id = 0;
  for (int64_t cut = cut_interval - 1; il < nl || ir < nr;
       cut += cut_interval) {
    size_t el = il, er = ir;
    while (el < nl && ts_of(s0, el, ls) <= cut) ++el;
    while (er < nr && ts_of(s1, er, rs) <= cut) ++er;
    if (el == il && er == ir && cut < max_ts) continue;
    TaskContext ctx;
    ctx.task_id = task_id;
    ctx.query = &q;
    ctx.num_inputs = 2;
    auto fill = [&](int side, const std::vector<uint8_t>& src, size_t lo,
                    size_t hi, size_t tsz2, const Schema& sch, int64_t prev_ts) {
      StreamBatch& b = ctx.input[side];
      b.data.seg1 = src.data() + lo * tsz2;
      b.data.len1 = (hi - lo) * tsz2;
      b.tuple_size = tsz2;
      b.first_index = static_cast<int64_t>(lo);
      b.first_ts = hi > lo ? ts_of(src, lo, sch) : 0;
      b.last_ts = hi > lo ? ts_of(src, hi - 1, sch) : prev_ts;
      b.prev_last_ts = prev_ts;
      b.history.seg1 = src.data();
      b.history.len1 = lo * tsz2;
      b.history_first_index = 0;
    };
    fill(0, s0, il, el, lsz, ls, prev_l_ts);
    fill(1, s1, ir, er, rsz, rs, prev_r_ts);
    TaskResult result;
    result.task_id = task_id++;
    op.ProcessBatch(ctx, &result);
    op.Assemble(result, state.get(), &output);
    if (el > il) prev_l_ts = ts_of(s0, el - 1, ls);
    if (er > ir) prev_r_ts = ts_of(s1, er - 1, rs);
    il = el;
    ir = er;
  }
  return output;
}

/// Byte equality with a readable failure message.
inline ::testing::AssertionResult BuffersEqual(const ByteBuffer& got,
                                               const ByteBuffer& want,
                                               size_t row_size) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: got " << got.size() << " bytes ("
           << got.size() / row_size << " rows), want " << want.size()
           << " bytes (" << want.size() / row_size << " rows)";
  }
  if (got.size() > 0 && std::memcmp(got.data(), want.data(), got.size()) != 0) {
    for (size_t off = 0; off < got.size(); off += row_size) {
      if (std::memcmp(got.data() + off, want.data() + off, row_size) != 0) {
        return ::testing::AssertionFailure()
               << "first differing row at index " << off / row_size << " of "
               << got.size() / row_size;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Copies `v`'s bytes to `dst + offset` — builds a padding-free image of a
/// parameter struct for PrintObjectBytes.
template <typename T>
inline void PutBytes(unsigned char* dst, size_t offset, const T& v) {
  std::memcpy(dst + offset, &v, sizeof(v));
}

/// Copies `w`'s fields to `dst + offset`, leaving its padding zero.
inline void PutWindowBytes(unsigned char* dst, size_t offset,
                           const WindowDefinition& w) {
  PutBytes(dst, offset + offsetof(WindowDefinition, type), w.type);
  PutBytes(dst, offset + offsetof(WindowDefinition, size), w.size);
  PutBytes(dst, offset + offsetof(WindowDefinition, slide), w.slide);
  PutBytes(dst, offset + offsetof(WindowDefinition, unbounded), w.unbounded);
}

/// Prints `n` bytes in gtest's default form for an unprintable object,
/// "N-byte object <XX-XX XX-XX ...>". gtest_discover_tests names each case
/// of a value-parameterised suite by that print, so a parameter struct with
/// padding prints through here from an image whose padding is zero (see the
/// PrintTo overloads of the sweep tests): printed directly, the padding
/// carries leftover stack bytes and the case ids change from build to build.
inline void PrintObjectBytes(const unsigned char* bytes, size_t n,
                             std::ostream* os) {
  *os << n << "-byte object <";
  char hex[3];
  for (size_t i = 0; i < n; ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    std::snprintf(hex, sizeof(hex), "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

}  // namespace saber::testing
