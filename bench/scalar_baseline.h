#pragma once

#include <algorithm>
#include <cstring>

#include "core/operator.h"
#include "cpu/fragment_assembly.h"
#include "relational/hash_table.h"
#include "relational/tuple_ref.h"
#include "window/window_math.h"

/// \file scalar_baseline.h
/// Row-at-a-time baseline for bench/operator_kernels: the batch operator
/// function of SABER's generic Java operators (§5.3), which interpret the
/// Expression tree once per tuple (lazy deserialisation, §5.1). It covers
/// exactly the three kernels the bench measures: identity-with-WHERE
/// selection, grouped aggregation over count windows, and the θ-join probe.
/// No sessions, no ungrouped aggregation, no projection. The bench checks
/// that its TaskResult bytes equal the engine operator's before it times
/// either, so the speedup it reports compares equal work.

namespace saber::bench {
namespace scalar_detail {

inline void Selection(const QueryDef& q, const TaskContext& ctx,
                      TaskResult* out) {
  const StreamBatch& in = ctx.input[0];
  const Schema& schema = q.input_schema[0];
  const size_t tsz = schema.tuple_size();
  out->axis_p = in.AxisP(q.window[0]);
  out->axis_q = in.AxisQ(q.window[0]);
  for (size_t i = 0; i < in.num_tuples(); ++i) {
    const uint8_t* bytes = in.tuple(i);
    if (!q.where->EvalBool(TupleRef(bytes, &schema), nullptr)) continue;
    out->complete.Append(bytes, tsz);  // identity projection: forward bytes
  }
}

inline void GroupedAggregation(const QueryDef& q, const TaskContext& ctx,
                               TaskResult* out) {
  const StreamBatch& in = ctx.input[0];
  const Schema& schema = q.input_schema[0];
  const WindowDefinition& w = q.window[0];
  const PaneFormat fmt = PaneFormat::For(q);
  const int64_t g = w.pane_size();
  out->axis_p = in.AxisP(w);
  out->axis_q = in.AxisQ(w);

  GroupHashTable table(fmt.key_size, fmt.num_aggs, kGroupTableTaskCapacity);
  int64_t cur_pane = -1;
  uint8_t key[kMaxGroupKeyBytes];
  auto flush = [&]() {
    if (cur_pane < 0 || table.size() == 0) return;
    const uint32_t off = static_cast<uint32_t>(out->partials.size());
    table.SerializeTo(&out->partials);
    out->panes.push_back(PaneEntry{
        cur_pane, off, static_cast<uint32_t>(out->partials.size() - off)});
    table.Clear();
  };
  for (size_t i = 0; i < in.num_tuples(); ++i) {
    TupleRef t(in.tuple(i), &schema);
    const int64_t ts = t.timestamp();
    const int64_t pane = in.AxisOf(w, i, ts) / g;
    if (pane != cur_pane) {
      flush();
      cur_pane = pane;
    }
    if (q.where != nullptr && !q.where->EvalBool(t, nullptr)) continue;
    for (size_t k = 0; k < q.group_by.size(); ++k) {
      const int64_t kv = q.group_by[k]->EvalInt64(t, nullptr);
      std::memcpy(key + k * 8, &kv, sizeof(kv));
    }
    if (table.NeedsGrow()) table.Grow();
    AggState* aggs = table.Upsert(key, static_cast<int32_t>(i), ts);
    for (size_t a = 0; a < fmt.num_aggs; ++a) {
      const Expression* input = q.aggregates[a].input.get();
      AggAdd(&aggs[a], input != nullptr ? input->EvalDouble(t, nullptr) : 0.0);
    }
  }
  flush();
}

/// Joins the `new_idx`-th tuple of `nw` against the opposite side's window
/// contents: its history plus the batch prefix [0, opp_prefix).
template <bool kNewIsLeft>
void JoinNewElement(const QueryDef& q, const StreamBatch& nw,
                    const StreamBatch& opp, size_t new_idx, size_t opp_prefix,
                    size_t* scan_lo, TaskResult* out) {
  const Schema& ns = q.input_schema[kNewIsLeft ? 0 : 1];
  const Schema& os = q.input_schema[kNewIsLeft ? 1 : 0];
  const WindowDefinition& wn = q.window[kNewIsLeft ? 0 : 1];
  const WindowDefinition& wo = q.window[kNewIsLeft ? 1 : 0];
  const Schema& out_schema = q.output_schema;
  const size_t opp_hist = opp.history_tuples();
  auto windows_of = [](const WindowDefinition& w, int64_t x) {
    return WindowIndexRange{
        std::max<int64_t>(0, FloorDiv(x - w.size, w.slide) + 1),
        FloorDiv(x, w.slide)};
  };
  auto opp_axis = [&](size_t k, const TupleRef& o) {
    if (wo.time_based()) return o.timestamp();
    return k < opp_hist ? opp.history_first_index + static_cast<int64_t>(k)
                        : opp.first_index + static_cast<int64_t>(k - opp_hist);
  };
  auto opp_tuple = [&](size_t k) {
    return TupleRef(k < opp_hist ? opp.history_tuple(k)
                                 : opp.tuple(k - opp_hist),
                    &os);
  };

  TupleRef t(nw.tuple(new_idx), &ns);
  const int64_t axis_n =
      wn.time_based() ? t.timestamp()
                      : nw.first_index + static_cast<int64_t>(new_idx);
  const WindowIndexRange jn = windows_of(wn, axis_n);
  if (jn.empty()) return;
  const size_t total = opp_hist + opp_prefix;
  // Partners whose windows all end before jn.lo never match again.
  while (*scan_lo < total &&
         FloorDiv(opp_axis(*scan_lo, opp_tuple(*scan_lo)), wo.slide) < jn.lo) {
    ++(*scan_lo);
  }
  for (size_t k = *scan_lo; k < total; ++k) {
    const TupleRef o = opp_tuple(k);
    const WindowIndexRange jo = windows_of(wo, opp_axis(k, o));
    if (jo.lo > jn.hi) break;  // partners are axis-ordered
    if (jo.hi < jn.lo) continue;
    const TupleRef& l = kNewIsLeft ? t : o;
    const TupleRef& r = kNewIsLeft ? o : t;
    if (!q.join_predicate->EvalBool(l, &r)) continue;
    uint8_t* row = out->complete.AppendUninitialized(out_schema.tuple_size());
    TupleWriter wr(row, &out_schema);
    wr.SetInt64(0, std::max(t.timestamp(), o.timestamp()));
    for (size_t f = 1; f < q.join_select.size(); ++f) {
      const Expression& e = *q.join_select[f];
      switch (out_schema.field(f).type) {
        case DataType::kInt32:
          wr.SetInt32(f, static_cast<int32_t>(e.EvalInt64(l, &r)));
          break;
        case DataType::kInt64:
          wr.SetInt64(f, e.EvalInt64(l, &r));
          break;
        default:
          wr.SetNumeric(f, e.EvalDouble(l, &r));
          break;
      }
    }
  }
}

inline void Join(const QueryDef& q, const TaskContext& ctx, TaskResult* out) {
  const StreamBatch& L = ctx.input[0];
  const StreamBatch& R = ctx.input[1];
  out->axis_p = L.AxisP(q.window[0]);
  out->axis_q = L.AxisQ(q.window[0]);
  const Schema& ls = q.input_schema[0];
  const Schema& rs = q.input_schema[1];
  size_t r_scan_lo = 0, l_scan_lo = 0;
  size_t il = 0, ir = 0;
  while (il < L.num_tuples() || ir < R.num_tuples()) {
    const bool take_left =
        ir >= R.num_tuples() ||
        (il < L.num_tuples() && TupleRef(L.tuple(il), &ls).timestamp() <=
                                    TupleRef(R.tuple(ir), &rs).timestamp());
    if (take_left) {  // left wins ties
      JoinNewElement<true>(q, L, R, il++, ir, &r_scan_lo, out);
    } else {
      JoinNewElement<false>(q, R, L, ir++, il, &l_scan_lo, out);
    }
  }
}

}  // namespace scalar_detail

/// Processes one task of `q`, which must be one of the three shapes above.
inline void ScalarProcessBatch(const QueryDef& q, const TaskContext& ctx,
                               TaskResult* out) {
  if (q.is_join()) {
    scalar_detail::Join(q, ctx, out);
  } else if (q.is_aggregation()) {
    SABER_CHECK(q.grouped() && !q.window[0].time_based());
    scalar_detail::GroupedAggregation(q, ctx, out);
  } else {
    SABER_CHECK(q.where != nullptr);
    scalar_detail::Selection(q, ctx, out);
  }
}

}  // namespace saber::bench
