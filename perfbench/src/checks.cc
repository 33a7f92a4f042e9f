#include "checks.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "reference/reference.h"
#include "sql/parser.h"
#include "workloads.h"
#include "workloads/synthetic.h"

namespace perfbench {
namespace {

const saber::Schema& InputSchema() {
  static const saber::Schema s = saber::syn::SyntheticSchema();
  return s;
}

/// Tuple `i` of the repeated stream, timestamp shifted.
struct StreamTuple {
  const uint8_t* bytes;
  int64_t ts;
};
StreamTuple At(const std::vector<uint8_t>& block, int64_t i) {
  const int64_t b = static_cast<int64_t>(block.size() / kTupleSize);
  const uint8_t* p = block.data() + (i % b) * kTupleSize;
  int64_t ts;
  std::memcpy(&ts, p, sizeof(ts));
  return {p, ts + i / b * (b / kTuplesPerTs)};
}

CheckResult Fail(std::string what) { return {false, std::move(what)}; }

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

bool Close(double got, double want, double rel_tol) {
  if (rel_tol == 0) return got == want;
  return std::fabs(got - want) <= rel_tol * std::max(1.0, std::fabs(want));
}

std::vector<AggRow> ParseAggRows(const std::vector<uint8_t>& rows,
                                 const saber::Schema& out) {
  std::vector<AggRow> parsed;
  const size_t rs = out.tuple_size();
  for (size_t off = 0; off + rs <= rows.size(); off += rs) {
    const uint8_t* r = rows.data() + off;
    parsed.push_back({FieldInt(r, out.field(0)), FieldInt(r, out.field(1)),
                      FieldInt(r, out.field(2)), FieldDouble(r, out.field(3))});
  }
  return parsed;
}

CheckResult CompareAggRows(const std::vector<AggRow>& got,
                           const std::vector<AggRow>& want, double rel_tol) {
  if (got.size() != want.size()) {
    return Fail(Fmt("%.0f rows, expected %.0f", static_cast<double>(got.size()),
                    static_cast<double>(want.size())));
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const AggRow& g = got[i];
    const AggRow& w = want[i];
    if (g.ts != w.ts || g.key != w.key || g.cnt != w.cnt ||
        !Close(g.sum, w.sum, rel_tol)) {
      return Fail(Fmt("row %.0f: ts/key/cnt/sum differ (sum %.17g vs %.17g)",
                      static_cast<double>(i), g.sum, w.sum));
    }
  }
  return {};
}

}  // namespace

RowDigest SelectDigest(const std::vector<uint8_t>& block, int64_t blocks) {
  RowDigest d;
  const saber::Field& a2 = InputSchema().field(2);
  const int64_t b = static_cast<int64_t>(block.size() / kTupleSize);
  const int64_t gb = b / kTuplesPerTs;
  uint8_t row[kTupleSize];
  for (int64_t k = 0; k < blocks; ++k) {
    for (int64_t i = 0; i < b; ++i) {
      const uint8_t* t = block.data() + i * kTupleSize;
      if (FieldInt(t, a2) >= kSelectBelow) continue;
      CopyShifted(block, static_cast<size_t>(i), 1, k * gb, row);
      d.Add(row, kTupleSize);
    }
  }
  return d;
}

std::vector<uint8_t> SelectRows(const std::vector<uint8_t>& block,
                                int64_t tuples) {
  std::vector<uint8_t> out;
  const saber::Field& a2 = InputSchema().field(2);
  for (int64_t i = 0; i < tuples; ++i) {
    const StreamTuple t = At(block, i);
    if (FieldInt(t.bytes, a2) >= kSelectBelow) continue;
    out.insert(out.end(), t.bytes, t.bytes + kTupleSize);
    std::memcpy(out.data() + out.size() - kTupleSize, &t.ts, sizeof(t.ts));
  }
  return out;
}

CheckResult CheckDigest(const RowDigest& got, const RowDigest& want) {
  if (got.rows != want.rows) {
    return Fail(Fmt("%.0f rows, expected %.0f", static_cast<double>(got.rows),
                    static_cast<double>(want.rows)));
  }
  if (got.hash != want.hash) return Fail("row digest differs");
  return {};
}

CheckResult CheckPrefix(const std::vector<uint8_t>& got,
                        const std::vector<uint8_t>& want, size_t row_size) {
  if (want.empty()) return Fail("reference prefix is empty");
  if (got.size() < want.size()) {
    return Fail(Fmt("%.0f prefix rows, reference has %.0f",
                    static_cast<double>(got.size() / row_size),
                    static_cast<double>(want.size() / row_size)));
  }
  for (size_t off = 0; off < want.size(); off += row_size) {
    if (std::memcmp(got.data() + off, want.data() + off, row_size) != 0) {
      return Fail(Fmt("prefix row %.0f differs from ReferenceEvaluate",
                      static_cast<double>(off / row_size)));
    }
  }
  return {};
}

CheckResult CheckProjection(
    int64_t rows, int64_t tuples,
    const std::vector<std::pair<int64_t, std::vector<uint8_t>>>& samples,
    const saber::Schema& out, const std::vector<uint8_t>& block, int chain) {
  if (rows != tuples) {
    return Fail(Fmt("%.0f rows for %.0f input tuples", static_cast<double>(rows),
                    static_cast<double>(tuples)));
  }
  if (samples.empty()) return Fail("no sampled rows");
  const saber::Schema& in = InputSchema();
  for (const auto& [pos, row] : samples) {
    if (pos >= tuples) return Fail("sampled row beyond the input");
    const StreamTuple t = At(block, pos);
    if (FieldInt(row.data(), out.field(0)) != t.ts) {
      return Fail(Fmt("row %.0f: timestamp differs", static_cast<double>(pos)));
    }
    for (size_t f = 1; f < out.num_fields(); ++f) {
      const saber::Field& src = in.field(f);
      const saber::Field& dst = out.field(f);
      bool same;
      if (src.type == saber::DataType::kFloat) {
        double x = FieldDouble(t.bytes, src);
        for (int c = 0; c < chain; ++c) x = x * 3.0 + 1.0;
        same = FieldDouble(row.data(), dst) == x;
      } else {
        // Integer chains run in 64-bit two's-complement arithmetic.
        uint64_t x = static_cast<uint64_t>(FieldInt(t.bytes, src));
        for (int c = 0; c < chain; ++c) x = x * 3 + 1;
        same = static_cast<uint64_t>(FieldInt(row.data(), dst)) == x;
      }
      if (!same) {
        return Fail(Fmt("row %.0f field %.0f differs from the chain",
                        static_cast<double>(pos), static_cast<double>(f)));
      }
    }
  }
  return {};
}

std::vector<AggRow> CountWindowRows(const std::vector<uint8_t>& block,
                                    int64_t tuples, int64_t size,
                                    int64_t slide) {
  std::vector<AggRow> out;
  const saber::Field& a1 = InputSchema().field(1);
  for (int64_t start = 0; start + size <= tuples; start += slide) {
    AggRow r;
    for (int64_t i = start; i < start + size; ++i) {
      const StreamTuple t = At(block, i);
      r.sum += FieldDouble(t.bytes, a1);
      r.ts = std::max(r.ts, t.ts);
    }
    r.cnt = size;
    out.push_back(r);
  }
  return out;
}

CheckResult CheckCountWindows(const std::vector<uint8_t>& rows,
                              const saber::Schema& out,
                              const std::vector<uint8_t>& block, int64_t tuples,
                              int64_t size, int64_t slide, double rel_tol) {
  const std::vector<AggRow> got = ParseAggRows(rows, out);
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].cnt != size) {
      return Fail(Fmt("window %.0f counts %.0f tuples", static_cast<double>(i),
                      static_cast<double>(got[i].cnt)));
    }
  }
  const int64_t windows = tuples >= size ? (tuples - size) / slide + 1 : 0;
  if (static_cast<int64_t>(got.size()) != windows) {
    return Fail(Fmt("%.0f windows for %.0f tuples", static_cast<double>(got.size()),
                    static_cast<double>(tuples)));
  }
  return CompareAggRows(got, CountWindowRows(block, tuples, size, slide),
                        rel_tol);
}

namespace {

/// Calls fn(row) for every expected row of the time-window GROUP-BY, in
/// output order. One pass over one block into per-timestamp, per-group
/// partials (the stream repeats the block); each window merges `range` of
/// them. Every row of a window carries the window's newest timestamp (as
/// ReferenceEvaluate does). A window closes once a later timestamp arrives, so the window
/// ending at the stream's last timestamp is never emitted.
template <typename Fn>
void ForEachTimeWindowRow(const std::vector<uint8_t>& block, int64_t tuples,
                          int64_t range, int64_t slide, int groups, Fn&& fn) {
  const saber::Schema& in = InputSchema();
  const int64_t block_ticks =
      static_cast<int64_t>(block.size() / kTupleSize) / kTuplesPerTs;
  std::vector<AggRow> part(static_cast<size_t>(block_ticks * groups));
  for (size_t off = 0; off < block.size(); off += kTupleSize) {
    const uint8_t* t = block.data() + off;
    const int64_t ts = FieldInt(t, in.field(0));
    const int64_t key = FieldInt(t, in.field(4)) % groups;
    AggRow& p = part[static_cast<size_t>(ts * groups + key)];
    ++p.cnt;
    p.sum += FieldDouble(t, in.field(1));
  }
  const int64_t ticks = tuples / kTuplesPerTs;
  std::vector<AggRow> rows(static_cast<size_t>(groups));
  for (int64_t start = 0; start + range < ticks; start += slide) {
    int64_t window_ts = 0;
    for (int key = 0; key < groups; ++key) {
      AggRow& w = rows[static_cast<size_t>(key)];
      w = AggRow{};
      w.key = key;
      for (int64_t ts = start; ts < start + range; ++ts) {
        const AggRow& p =
            part[static_cast<size_t>((ts % block_ticks) * groups + key)];
        if (p.cnt == 0) continue;
        window_ts = std::max(window_ts, ts);
        w.cnt += p.cnt;
        w.sum += p.sum;
      }
    }
    for (AggRow& w : rows) {
      w.ts = window_ts;
      if (w.cnt > 0) fn(w);
    }
  }
}

}  // namespace

std::vector<AggRow> TimeWindowRows(const std::vector<uint8_t>& block,
                                   int64_t tuples, int64_t range, int64_t slide,
                                   int groups) {
  std::vector<AggRow> out;
  ForEachTimeWindowRow(block, tuples, range, slide, groups,
                       [&](const AggRow& r) { out.push_back(r); });
  return out;
}

CheckResult CheckTimeWindows(const RowDigest& got,
                             const std::vector<std::pair<int64_t, int64_t>>& windows,
                             const saber::Schema& out,
                             const std::vector<uint8_t>& block, int64_t tuples,
                             int64_t range, int64_t slide, int groups) {
  // Property: the cnt values of a window add up to every tuple whose
  // timestamp falls in it.
  for (size_t w = 0; w < windows.size(); ++w) {
    if (windows[w].second != range * kTuplesPerTs) {
      return Fail(Fmt("window %.0f (ts %.0f) counts %.0f tuples",
                      static_cast<double>(w), static_cast<double>(windows[w].first),
                      static_cast<double>(windows[w].second)) +
                  Fmt(", %.0f fall in it", static_cast<double>(range * kTuplesPerTs)));
    }
  }
  // Every row against the one-pass evaluation, in order.
  RowDigest want;
  std::vector<uint8_t> row;
  int64_t want_windows = 0;
  int64_t last_ts = -1;
  ForEachTimeWindowRow(block, tuples, range, slide, groups, [&](const AggRow& r) {
    row = SerializeAggRows({r}, out);
    want.Add(row.data(), row.size());
    want_windows += r.ts != last_ts ? 1 : 0;
    last_ts = r.ts;
  });
  if (static_cast<int64_t>(windows.size()) != want_windows) {
    return Fail(Fmt("%.0f windows, expected %.0f", static_cast<double>(windows.size()),
                    static_cast<double>(want_windows)));
  }
  return CheckDigest(got, want);
}

std::vector<uint8_t> SerializeAggRows(const std::vector<AggRow>& rows,
                                      const saber::Schema& out) {
  std::vector<uint8_t> bytes(rows.size() * out.tuple_size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    saber::TupleWriter w(bytes.data() + i * out.tuple_size(), &out);
    w.SetNumeric(0, static_cast<double>(rows[i].ts));
    w.SetNumeric(1, static_cast<double>(rows[i].key));
    w.SetNumeric(2, static_cast<double>(rows[i].cnt));
    w.SetNumeric(3, rows[i].sum);
  }
  return bytes;
}

std::vector<uint8_t> ReferencePrefix(const saber::QueryDef& def,
                                     const std::vector<uint8_t>& block,
                                     int64_t tuples) {
  std::vector<uint8_t> in(static_cast<size_t>(tuples) * kTupleSize);
  const int64_t b = static_cast<int64_t>(block.size() / kTupleSize);
  for (int64_t i = 0; i < tuples; i += b) {
    CopyShifted(block, 0, static_cast<size_t>(std::min(b, tuples - i)),
                i / b * (b / kTuplesPerTs), in.data() + i * kTupleSize);
  }
  const saber::ByteBuffer out = saber::ReferenceEvaluate(def, in);
  return std::vector<uint8_t>(out.data(), out.data() + out.size());
}

// ---------------------------------------------------------------------------
// Self-test.
// ---------------------------------------------------------------------------

namespace {

using Rows = std::vector<uint8_t>;

Rows DropRow(Rows r, size_t rs, size_t i) {
  r.erase(r.begin() + static_cast<ptrdiff_t>(i * rs),
          r.begin() + static_cast<ptrdiff_t>((i + 1) * rs));
  return r;
}
Rows SwapRows(Rows r, size_t rs, size_t i, size_t j) {
  std::swap_ranges(r.begin() + static_cast<ptrdiff_t>(i * rs),
                   r.begin() + static_cast<ptrdiff_t>((i + 1) * rs),
                   r.begin() + static_cast<ptrdiff_t>(j * rs));
  return r;
}
class SelfTest {
 public:
  /// `check` must accept `good`; each named mutation must be rejected.
  void Case(const std::string& name, const std::function<CheckResult(const Rows&)>& check,
            const Rows& good, const std::vector<std::pair<std::string, Rows>>& bad) {
    const CheckResult ok = check(good);
    Report(name + ": accepts the right output", ok.ok, ok.what);
    for (const auto& [mutation, rows] : bad) {
      const CheckResult r = check(rows);
      Report(name + ": rejects " + mutation, !r.ok, r.what);
    }
  }
  void Report(const std::string& what, bool pass, const std::string& detail) {
    std::printf("%s  %s%s%s\n", pass ? "PASS" : "FAIL", what.c_str(),
                detail.empty() ? "" : "  -- ", detail.c_str());
    failures_ += pass ? 0 : 1;
  }
  int failures() const { return failures_; }

 private:
  int failures_ = 0;
};

/// Row `i` with field `f` bumped by one, leaving the other fields intact.
Rows Bump(const Rows& rows, const saber::Schema& s, size_t i, size_t f) {
  Rows r = rows;
  uint8_t* row = r.data() + i * s.tuple_size();
  const saber::Field& field = s.field(f);
  switch (field.type) {
    case saber::DataType::kInt32: {
      int32_t v;
      std::memcpy(&v, row + field.offset, 4);
      ++v;
      std::memcpy(row + field.offset, &v, 4);
      break;
    }
    case saber::DataType::kInt64: {
      int64_t v;
      std::memcpy(&v, row + field.offset, 8);
      ++v;
      std::memcpy(row + field.offset, &v, 8);
      break;
    }
    case saber::DataType::kFloat: {
      float v;
      std::memcpy(&v, row + field.offset, 4);
      v += 1;
      std::memcpy(row + field.offset, &v, 4);
      break;
    }
    case saber::DataType::kDouble: {
      double v;
      std::memcpy(&v, row + field.offset, 8);
      v += 1;
      std::memcpy(row + field.offset, &v, 8);
      break;
    }
  }
  return r;
}

}  // namespace

int RunSelfTest() {
  SelfTest t;
  const std::vector<uint8_t> block = MakeBlock(7, 8192);
  const saber::Schema in = saber::syn::SyntheticSchema();

  // remote_select: digest of the subscriber's rows.
  {
    const saber::sql::Catalog catalog{{"Syn", in}};
    const saber::QueryDef def =
        saber::sql::Parse(kRemoteSql, catalog).value();
    const int64_t tuples = 3 * 8192;
    const Rows good = SelectRows(block, tuples);
    const Rows ref = ReferencePrefix(def, block, tuples);
    t.Report("select: own filter equals ReferenceEvaluate", good == ref, "");
    const RowDigest want = SelectDigest(block, 3);
    auto digest_of = [&](const Rows& rows) {
      RowDigest d;
      for (size_t off = 0; off < rows.size(); off += kTupleSize) {
        d.Add(rows.data() + off, kTupleSize);
      }
      return CheckDigest(d, want);
    };
    t.Case("select digest", digest_of, good,
           {{"one row dropped", DropRow(good, kTupleSize, 100)},
            {"one value changed", Bump(good, in, 100, 3)},
            {"two rows swapped", SwapRows(good, kTupleSize, 100, 101)}});
    auto prefix_of = [&](const Rows& rows) {
      return CheckPrefix(rows, ref, kTupleSize);
    };
    t.Case("select reference prefix", prefix_of, good,
           {{"one row dropped", DropRow(good, kTupleSize, 5)},
            {"one value changed", Bump(good, in, 5, 4)},
            {"two rows swapped", SwapRows(good, kTupleSize, 5, 6)}});
  }

  // hybrid_two_query, PROJ6: sampled rows against the chain.
  {
    const saber::QueryDef def = HybridProjection();
    const saber::Schema& out = def.output_schema;
    const size_t rs = out.tuple_size();
    const int64_t tuples = 3 * Sink::kSampleStride + 100;
    const Rows good = ReferencePrefix(def, block, tuples);
    auto proj_of = [&](const Rows& rows) {
      std::vector<std::pair<int64_t, std::vector<uint8_t>>> samples;
      const int64_t n = static_cast<int64_t>(rows.size() / rs);
      for (int64_t pos = 0; pos < n; pos += Sink::kSampleStride) {
        samples.emplace_back(pos, Rows(rows.begin() + pos * static_cast<int64_t>(rs),
                                       rows.begin() + (pos + 1) * static_cast<int64_t>(rs)));
      }
      return CheckProjection(n, tuples, samples, out, block, kProjChain);
    };
    const size_t s = Sink::kSampleStride;
    t.Case("proj6 samples", proj_of, good,
           {{"one row dropped", DropRow(good, rs, s - 1)},
            {"one value changed", Bump(good, out, s, 2)},
            {"two rows swapped", SwapRows(good, rs, s, 2 * s)}});
  }

  // hybrid_two_query, GROUP-BY1 over count windows.
  {
    const saber::QueryDef def = HybridGroupBy();
    const saber::Schema& out = def.output_schema;
    const size_t rs = out.tuple_size();
    const int64_t tuples = 20 * 1024;
    const Rows ref = ReferencePrefix(def, block, tuples);
    const Rows good =
        SerializeAggRows(CountWindowRows(block, tuples, kCountSize, kCountSlide), out);
    t.Report("count windows: own evaluation equals ReferenceEvaluate", good == ref, "");
    auto check = [&](const Rows& rows) {
      return CheckCountWindows(rows, out, block, tuples, kCountSize, kCountSlide,
                               1e-9);
    };
    t.Case("count windows", check, good,
           {{"one row dropped", DropRow(good, rs, 7)},
            {"one value changed", Bump(good, out, 7, 3)},
            {"two rows swapped", SwapRows(good, rs, 7, 8)}});
  }

  // small_task_agg, GROUP-BY8 over time windows.
  {
    const saber::QueryDef def = SmallAggregation();
    const saber::Schema& out = def.output_schema;
    const size_t rs = out.tuple_size();
    const int64_t tuples = 12 * 1024;
    const Rows ref = ReferencePrefix(def, block, tuples);
    const Rows good = SerializeAggRows(
        TimeWindowRows(block, tuples, kAggRange, kAggSlide, kAggGroups), out);
    t.Report("time windows: own evaluation equals ReferenceEvaluate",
             good == ref,
             good == ref ? "" : Fmt("%.0f rows vs reference %.0f",
                                    static_cast<double>(good.size() / rs),
                                    static_cast<double>(ref.size() / rs)));
    auto check = [&](const Rows& rows) {
      Sink sink(out, Keep::kWindowDigest, nullptr, nullptr);
      sink.OnBatch(rows.data(), rows.size());
      return CheckTimeWindows(sink.digest(), sink.windows(), out, block, tuples,
                              kAggRange, kAggSlide, kAggGroups);
    };
    t.Case("time windows", check, good,
           {{"one row dropped", DropRow(good, rs, 9)},
            {"one value changed", Bump(good, out, 9, 3)},
            {"two rows swapped", SwapRows(good, rs, 9, 10)}});
  }

  std::printf("selftest: %s\n", t.failures() == 0 ? "all checks hold" : "FAILED");
  return t.failures() == 0 ? 0 : 1;
}

}  // namespace perfbench
