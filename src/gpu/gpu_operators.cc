#include "gpu/gpu_operators.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <latch>

#include "cpu/fragment_assembly.h"
#include "cpu/udf_operator.h"
#include "relational/expression_compiler.h"
#include "relational/field_plan.h"
#include "relational/hash_table.h"
#include "window/window_math.h"

namespace saber {

void GpuOperatorBase::ProcessBatch(const TaskContext& ctx, TaskResult* out) const {
  std::latch done(1);
  SubmitAsync(ctx, out, [&done] { done.count_down(); });
  done.wait();
}

namespace {

// Output-row plans are shared with the CPU back end
// (relational/field_plan.h) so the populated "code template" pieces (§5.4)
// cannot drift between processors: raw column copies, the join max-ts
// stamp, and typed compiled programs (int64 lane for integral fields).

inline int64_t RawTs(const uint8_t* tuple) {
  int64_t ts;
  std::memcpy(&ts, tuple, sizeof(ts));
  return ts;
}

// ---------------------------------------------------------------------------
// Selection / projection kernel: work groups over tuple chunks, per-group
// local compaction, then a prefix-sum write into contiguous device memory
// (§5.4's scan step). Output is byte-identical to the CPU operator because
// groups are concatenated in order.
// ---------------------------------------------------------------------------

class GpuStatelessOperator final : public GpuOperatorBase {
 public:
  GpuStatelessOperator(const QueryDef* q, SimDevice* device)
      : GpuOperatorBase(q, device) {
    if (q->where != nullptr) {
      where_ = CompiledExpr::Compile(*q->where, q->input_schema[0]);
    }
    identity_ = DetectIdentity(*q);
    if (!identity_) {
      writers_ = BuildFieldPlans(q->select, q->output_schema,
                                 q->input_schema[0], nullptr, false);
    }
  }

  void SubmitAsync(const TaskContext& ctx, TaskResult* out,
                   std::function<void()> done) const override {
    GpuJob* job = device_->AcquireJob();
    job->task_id = ctx.task_id;
    job->num_spans = 1;
    job->host_input[0] = ctx.input[0].data;
    job->input_bytes[0] = ctx.input[0].data.total();
    job->axis_p = ctx.input[0].AxisP(query_->window[0]);
    job->axis_q = ctx.input[0].AxisQ(query_->window[0]);
    job->result = out;
    SimDevice* dev = device_;
    job->on_complete = [dev, done = std::move(done)](GpuJob* j) {
      dev->ReleaseJob(j);
      done();
    };
    job->kernel = [this](SimDevice& d, GpuJob& j) { Kernel(d, j); };
    device_->Submit(job);
  }

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    static_cast<ConcatAssembly*>(state)->Ingest(result, output);
  }
  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return std::make_unique<ConcatAssembly>();
  }

 private:
  static bool DetectIdentity(const QueryDef& q) {
    if (q.select.size() != q.input_schema[0].num_fields()) return false;
    for (size_t i = 0; i < q.select.size(); ++i) {
      const auto* col = q.select[i]->kind() == Expression::Kind::kColumn
                            ? static_cast<const ColumnExpr*>(q.select[i].get())
                            : nullptr;
      if (col == nullptr || col->field() != i) return false;
    }
    return q.output_schema.tuple_size() == q.input_schema[0].tuple_size();
  }

  void Kernel(SimDevice& dev, GpuJob& j) const {
    constexpr size_t kGroupTuples = 1024;
    const size_t tsz = query_->input_schema[0].tuple_size();
    const size_t osz = identity_ ? tsz : query_->output_schema.tuple_size();
    const size_t n = j.input_bytes[0] / tsz;
    const size_t ng = (n + kGroupTuples - 1) / kGroupTuples;
    const size_t group_cap = kGroupTuples * osz;
    j.device_scratch.Resize(ng * group_cap);
    std::vector<size_t> group_bytes(ng, 0);
    const uint8_t* in = j.device_in.data();
    const bool has_where = query_->where != nullptr;

    dev.ParallelFor(ng, [&](size_t g, size_t) {
      const size_t lo = g * kGroupTuples;
      const size_t hi = std::min(n, lo + kGroupTuples);
      uint8_t* dst = j.device_scratch.data() + g * group_cap;
      size_t off = 0;
      for (size_t i = lo; i < hi; ++i) {
        const uint8_t* t = in + i * tsz;
        if (has_where && !where_.EvalBool(t)) continue;
        if (identity_) {
          std::memcpy(dst + off, t, tsz);
        } else {
          WriteRowFromPlans(writers_, t, nullptr, dst + off, osz);
        }
        off += osz;
      }
      group_bytes[g] = off;
    });

    size_t total = 0;
    for (size_t g = 0; g < ng; ++g) total += group_bytes[g];
    j.device_out.Resize(total);
    size_t off = 0;
    for (size_t g = 0; g < ng; ++g) {
      if (group_bytes[g] == 0) continue;  // memcpy(_, null, 0) is still UB
      std::memcpy(j.device_out.data() + off, j.device_scratch.data() + g * group_cap,
                  group_bytes[g]);
      off += group_bytes[g];
    }
    j.complete_bytes = total;
  }

  CompiledExpr where_;
  bool identity_;
  std::vector<FieldPlan> writers_;
};

// ---------------------------------------------------------------------------
// Aggregation kernel: one work group per pane (the window fragments of §5.4:
// "tuples that are part of the same window are assigned to the same work
// group"). Pane boundaries are computed on the CPU at submit time — the
// paper is explicit that window-boundary computation always runs on the CPU.
// Within a pane, accumulation is sequential to stay bit-identical with the
// CPU back end; across panes, groups run on all executors.
// ---------------------------------------------------------------------------

struct PaneRange {
  int64_t pane;
  uint32_t lo, hi;  // tuple index range within the batch
};

/// CPU-side window-boundary computation (§6.4: "the computation of the
/// window boundaries is always executed on the CPU"): pane ranges of one
/// stream batch. Shared by the aggregation and UDF collection kernels.
std::vector<PaneRange> ComputePaneRanges(const StreamBatch& in,
                                         const WindowDefinition& w) {
  std::vector<PaneRange> out;
  const size_t n = in.num_tuples();
  if (n == 0) return out;
  const int64_t g = w.pane_size();
  if (!w.time_based()) {
    // Pure arithmetic: pane of tuple i is (first_index + i) / g.
    int64_t pane = in.first_index / g;
    for (;;) {
      const int64_t lo_axis = std::max(pane * g, in.first_index);
      const int64_t hi_axis =
          std::min((pane + 1) * g, in.first_index + static_cast<int64_t>(n));
      if (lo_axis >= hi_axis) break;
      out.push_back(PaneRange{pane,
                              static_cast<uint32_t>(lo_axis - in.first_index),
                              static_cast<uint32_t>(hi_axis - in.first_index)});
      ++pane;
    }
    return out;
  }
  // Time axis: linear boundary scan over the serialized timestamps.
  int64_t cur_pane = -1;
  uint32_t start = 0;
  for (size_t i = 0; i < n; ++i) {
    const int64_t pane = RawTs(in.tuple(i)) / g;
    if (pane != cur_pane) {
      if (cur_pane >= 0) {
        out.push_back(PaneRange{cur_pane, start, static_cast<uint32_t>(i)});
      }
      cur_pane = pane;
      start = static_cast<uint32_t>(i);
    }
  }
  out.push_back(PaneRange{cur_pane, start, static_cast<uint32_t>(n)});
  return out;
}

/// Session-window variant of the CPU-side boundary pre-pass: maximal
/// gap-free runs of the batch, in order. `pane` carries the task-local
/// segment ordinal (there is no pane grid for data-driven windows); the
/// assembly ignores it and folds segments in emission order.
std::vector<PaneRange> ComputeSessionRanges(const StreamBatch& in,
                                            int64_t gap) {
  std::vector<PaneRange> out;
  const size_t n = in.num_tuples();
  if (n == 0) return out;
  int64_t seg = 0;
  uint32_t start = 0;
  int64_t last_ts = RawTs(in.tuple(0));
  for (size_t i = 1; i < n; ++i) {
    const int64_t ts = RawTs(in.tuple(i));
    if (!SessionExtends(last_ts, ts, gap)) {
      out.push_back(PaneRange{seg++, start, static_cast<uint32_t>(i)});
      start = static_cast<uint32_t>(i);
    }
    last_ts = ts;
  }
  out.push_back(PaneRange{seg, start, static_cast<uint32_t>(n)});
  return out;
}

class GpuAggregationOperator final : public GpuOperatorBase {
 public:
  GpuAggregationOperator(const QueryDef* q, SimDevice* device)
      : GpuOperatorBase(q, device), fmt_(PaneFormat::For(*q)) {
    if (q->where != nullptr) {
      where_ = CompiledExpr::Compile(*q->where, q->input_schema[0]);
    }
    for (const auto& a : q->aggregates) {
      agg_inputs_.push_back(
          a.input != nullptr
              ? CompiledExpr::Compile(*a.input, q->input_schema[0])
              : CompiledExpr());
    }
    for (const auto& k : q->group_by) {
      key_progs_.push_back(CompiledExpr::Compile(*k, q->input_schema[0]));
    }
    // Per-executor hash tables (pooled, §5.3).
    const size_t pool = static_cast<size_t>(device->options().num_executors) + 2;
    for (size_t i = 0; i < pool; ++i) {
      tables_.push_back(fmt_.grouped()
                            ? std::make_unique<GroupHashTable>(fmt_.key_size,
                                                               fmt_.num_aggs, 1024)
                            : nullptr);
    }
  }

  void SubmitAsync(const TaskContext& ctx, TaskResult* out,
                   std::function<void()> done) const override {
    const StreamBatch& in = ctx.input[0];
    const WindowDefinition& w = query_->window[0];
    GpuJob* job = device_->AcquireJob();
    job->task_id = ctx.task_id;
    job->num_spans = 1;
    job->host_input[0] = in.data;
    job->input_bytes[0] = in.data.total();
    job->axis_p = in.AxisP(w);
    job->axis_q = in.AxisQ(w);
    job->result = out;
    SimDevice* dev = device_;
    job->on_complete = [dev, done = std::move(done)](GpuJob* j) {
      dev->ReleaseJob(j);
      done();
    };
    // CPU-side window-boundary computation (§6.4). Session windows have no
    // pane grid: the pre-pass instead splits the batch into maximal
    // gap-free segments.
    std::vector<PaneRange> ranges = w.session()
                                        ? ComputeSessionRanges(in, w.gap())
                                        : ComputePaneRanges(in, w);
    job->kernel = [this, ranges = std::move(ranges)](SimDevice& d, GpuJob& j) {
      Kernel(d, j, ranges);
    };
    device_->Submit(job);
  }

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    static_cast<AggregationAssembly*>(state)->Ingest(result, output);
  }
  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return std::make_unique<AggregationAssembly>(*query_);
  }

 private:
  void Kernel(SimDevice& dev, GpuJob& j,
              const std::vector<PaneRange>& ranges) const {
    const size_t tsz = query_->input_schema[0].tuple_size();
    const size_t na = fmt_.num_aggs;
    const size_t np = ranges.size();
    const uint8_t* in = j.device_in.data();
    const bool has_where = query_->where != nullptr;
    const bool session = query_->window[0].session();

    if (!fmt_.grouped()) {
      // Session segments carry a [first_ts][last_ts] header instead of the
      // pane partial's single max_ts; the accumulation body is identical.
      const size_t slot =
          session ? fmt_.session_ungrouped_bytes() : fmt_.ungrouped_bytes();
      j.device_scratch.Resize(np * slot);
      dev.ParallelFor(np, [&](size_t p, size_t) {
        const PaneRange& r = ranges[p];
        uint8_t* dst = j.device_scratch.data() + p * slot;
        AggState acc[kMaxAggregatesPerQuery];
        SABER_CHECK(na <= kMaxAggregatesPerQuery);
        for (size_t a = 0; a < na; ++a) AggInit(&acc[a]);
        int64_t max_ts = 0;
        for (uint32_t i = r.lo; i < r.hi; ++i) {
          const uint8_t* t = in + i * tsz;
          max_ts = RawTs(t);
          if (has_where && !where_.EvalBool(t)) continue;
          for (size_t a = 0; a < na; ++a) {
            const double v =
                agg_inputs_[a].empty() ? 0.0 : agg_inputs_[a].EvalDouble(t);
            AggAdd(&acc[a], v);
          }
        }
        if (session) {
          const int64_t first_ts = RawTs(in + r.lo * tsz);
          std::memcpy(dst, &first_ts, sizeof(first_ts));
          std::memcpy(dst + 8, &max_ts, sizeof(max_ts));
          std::memcpy(dst + 16, acc, na * sizeof(AggState));
        } else {
          std::memcpy(dst, &max_ts, sizeof(max_ts));
          std::memcpy(dst + 8, acc, na * sizeof(AggState));
        }
      });
      // Every pane has raw tuples by construction: ship them all, in order.
      j.device_out.Resize(np * slot);
      std::memcpy(j.device_out.data(), j.device_scratch.data(), np * slot);
      j.partials_bytes = np * slot;
      for (size_t p = 0; p < np; ++p) {
        j.panes.push_back(PaneEntry{ranges[p].pane,
                                    static_cast<uint32_t>(p * slot),
                                    static_cast<uint32_t>(slot)});
      }
      return;
    }

    // Grouped: per-pane hash table (same layout and hash as the CPU, §5.4),
    // serialized per pane and concatenated in pane order. Session segments
    // prepend a [first_ts][last_ts] header — present even when every tuple
    // was filtered out, because the session's extent is defined by raw
    // tuples (cpu/fragment_assembly.h).
    std::vector<ByteBuffer> pane_out(np);
    const size_t nk = key_progs_.size();
    dev.ParallelFor(np, [&](size_t p, size_t thread) {
      const PaneRange& r = ranges[p];
      GroupHashTable* table = tables_[thread % tables_.size()].get();
      table->Clear();
      if (session) {
        const int64_t first_ts = RawTs(in + r.lo * tsz);
        const int64_t last_ts = RawTs(in + (r.hi - 1) * tsz);
        pane_out[p].AppendValue<int64_t>(first_ts);
        pane_out[p].AppendValue<int64_t>(last_ts);
      }
      uint8_t key[kMaxGroupKeyBytes];
      for (uint32_t i = r.lo; i < r.hi; ++i) {
        const uint8_t* t = in + i * tsz;
        if (has_where && !where_.EvalBool(t)) continue;
        for (size_t k = 0; k < nk; ++k) {
          // EvalInt64 keeps 64-bit keys exact (the typed int64 lane); the
          // CPU operator computes the same key bytes, which §5.4 requires
          // for cross-processor hash-table compatibility.
          const int64_t kv = key_progs_[k].EvalInt64(t);
          std::memcpy(key + k * 8, &kv, sizeof(kv));
        }
        if (table->NeedsGrow()) table->Grow();
        AggState* aggs = table->Upsert(key, static_cast<int32_t>(i), RawTs(t));
        if (aggs == nullptr) {
          table->Grow();
          aggs = table->Upsert(key, static_cast<int32_t>(i), RawTs(t));
          SABER_CHECK(aggs != nullptr);
        }
        for (size_t a = 0; a < na; ++a) {
          const double v =
              agg_inputs_[a].empty() ? 0.0 : agg_inputs_[a].EvalDouble(t);
          AggAdd(&aggs[a], v);
        }
      }
      if (table->size() > 0) table->SerializeTo(&pane_out[p]);
    });
    size_t total = 0;
    for (const auto& b : pane_out) total += b.size();
    j.device_out.Resize(total);
    size_t off = 0;
    for (size_t p = 0; p < np; ++p) {
      if (pane_out[p].empty()) continue;
      std::memcpy(j.device_out.data() + off, pane_out[p].data(), pane_out[p].size());
      j.panes.push_back(PaneEntry{ranges[p].pane, static_cast<uint32_t>(off),
                                  static_cast<uint32_t>(pane_out[p].size())});
      off += pane_out[p].size();
    }
    j.partials_bytes = total;
  }

  PaneFormat fmt_;
  CompiledExpr where_;
  std::vector<CompiledExpr> agg_inputs_;
  std::vector<CompiledExpr> key_progs_;
  mutable std::vector<std::unique_ptr<GroupHashTable>> tables_;
};

// ---------------------------------------------------------------------------
// θ-join kernel: two-pass count + compact (§5.4 "the number of tuples that
// match the join predicate is counted and the results are compressed in the
// global GPGPU memory"). The merged element order and per-element partner
// scan ranges — the window-boundary work — are computed on the CPU at submit
// time; this CPU-side pre-pass is what caps GPGPU join throughput at large
// task sizes (§6.4, Fig. 12c).
// ---------------------------------------------------------------------------

struct JoinElem {
  uint8_t side;       // 0 = element from the left batch
  uint32_t idx;       // index within its batch
  uint32_t scan_lo;   // partner scan range within [opp_hist ++ opp_batch]
  uint32_t scan_hi;
};

class GpuJoinOperator final : public GpuOperatorBase {
 public:
  GpuJoinOperator(const QueryDef* q, SimDevice* device)
      : GpuOperatorBase(q, device) {
    pred_ = CompiledExpr::Compile(*q->join_predicate, q->input_schema[0],
                                  &q->input_schema[1]);
    writers_ = BuildFieldPlans(q->join_select, q->output_schema,
                               q->input_schema[0], &q->input_schema[1],
                               /*field0_is_max_ts=*/true);
  }

  void SubmitAsync(const TaskContext& ctx, TaskResult* out,
                   std::function<void()> done) const override {
    const StreamBatch& L = ctx.input[0];
    const StreamBatch& R = ctx.input[1];
    GpuJob* job = device_->AcquireJob();
    job->task_id = ctx.task_id;
    job->num_spans = 4;
    job->host_input[0] = L.data;
    job->host_input[1] = R.data;
    job->host_input[2] = L.history;
    job->host_input[3] = R.history;
    for (int i = 0; i < 4; ++i) job->input_bytes[i] = job->host_input[i].total();
    job->axis_p = L.AxisP(query_->window[0]);
    job->axis_q = L.AxisQ(query_->window[0]);
    job->result = out;
    SimDevice* dev = device_;
    job->on_complete = [dev, done = std::move(done)](GpuJob* j) {
      dev->ReleaseJob(j);
      done();
    };
    // CPU pre-pass: merged arrival order + partner scan ranges.
    Layout lay = MakeLayout(L, R);
    std::vector<JoinElem> elems = BuildElements(L, R, lay);
    job->kernel = [this, lay, elems = std::move(elems)](SimDevice& d, GpuJob& j) {
      Kernel(d, j, lay, elems);
    };
    device_->Submit(job);
  }

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    static_cast<ConcatAssembly*>(state)->Ingest(result, output);
  }
  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return std::make_unique<ConcatAssembly>();
  }

 private:
  struct Layout {
    size_t lsz, rsz;            // tuple sizes
    size_t nl, nr, hl, hr;      // batch / history tuple counts
    size_t off_lb, off_rb, off_lh, off_rh;  // byte offsets in device_in
    int64_t l_first, r_first, lh_first, rh_first;  // global indices
  };

  static WindowIndexRange WindowsOf(const WindowDefinition& w, int64_t x) {
    WindowIndexRange r;
    r.lo = std::max<int64_t>(0, FloorDiv(x - w.size, w.slide) + 1);
    r.hi = FloorDiv(x, w.slide);
    return r;
  }

  Layout MakeLayout(const StreamBatch& L, const StreamBatch& R) const {
    Layout lay;
    lay.lsz = query_->input_schema[0].tuple_size();
    lay.rsz = query_->input_schema[1].tuple_size();
    lay.nl = L.num_tuples();
    lay.nr = R.num_tuples();
    lay.hl = L.history_tuples();
    lay.hr = R.history_tuples();
    lay.off_lb = 0;
    lay.off_rb = lay.off_lb + lay.nl * lay.lsz;
    lay.off_lh = lay.off_rb + lay.nr * lay.rsz;
    lay.off_rh = lay.off_lh + lay.hl * lay.lsz;
    lay.l_first = L.first_index;
    lay.r_first = R.first_index;
    lay.lh_first = L.history_first_index;
    lay.rh_first = R.history_first_index;
    return lay;
  }

  /// Replays the CPU join's merge iteration to fix the element order and the
  /// advancing partner lower bounds (all window-boundary logic lives here,
  /// on the CPU).
  std::vector<JoinElem> BuildElements(const StreamBatch& L, const StreamBatch& R,
                                      const Layout& lay) const {
    const Schema& ls = query_->input_schema[0];
    const Schema& rs = query_->input_schema[1];
    const WindowDefinition& wl = query_->window[0];
    const WindowDefinition& wr = query_->window[1];
    std::vector<JoinElem> elems;
    elems.reserve(lay.nl + lay.nr);
    size_t il = 0, ir = 0;
    size_t r_scan_lo = 0, l_scan_lo = 0;

    auto opp_axis = [&](const StreamBatch& opp, const WindowDefinition& wo,
                        const Schema& /*os*/, size_t k, size_t hist) -> int64_t {
      if (!wo.time_based()) {
        return k < hist ? opp.history_first_index + static_cast<int64_t>(k)
                        : opp.first_index + static_cast<int64_t>(k - hist);
      }
      const uint8_t* b = k < hist ? opp.history_tuple(k) : opp.tuple(k - hist);
      return RawTs(b);
    };

    while (il < lay.nl || ir < lay.nr) {
      bool take_left;
      if (il >= lay.nl) {
        take_left = false;
      } else if (ir >= lay.nr) {
        take_left = true;
      } else {
        take_left = RawTs(L.tuple(il)) <= RawTs(R.tuple(ir));
      }
      if (take_left) {
        const int64_t axis =
            wl.time_based() ? RawTs(L.tuple(il))
                            : L.first_index + static_cast<int64_t>(il);
        const WindowIndexRange jn = WindowsOf(wl, axis);
        const size_t total = lay.hr + ir;
        while (r_scan_lo < total &&
               FloorDiv(opp_axis(R, wr, rs, r_scan_lo, lay.hr), wr.slide) < jn.lo) {
          ++r_scan_lo;
        }
        elems.push_back(JoinElem{0, static_cast<uint32_t>(il),
                                 static_cast<uint32_t>(r_scan_lo),
                                 static_cast<uint32_t>(total)});
        ++il;
      } else {
        const int64_t axis =
            wr.time_based() ? RawTs(R.tuple(ir))
                            : R.first_index + static_cast<int64_t>(ir);
        const WindowIndexRange jn = WindowsOf(wr, axis);
        const size_t total = lay.hl + il;
        while (l_scan_lo < total &&
               FloorDiv(opp_axis(L, wl, ls, l_scan_lo, lay.hl), wl.slide) < jn.lo) {
          ++l_scan_lo;
        }
        elems.push_back(JoinElem{1, static_cast<uint32_t>(ir),
                                 static_cast<uint32_t>(l_scan_lo),
                                 static_cast<uint32_t>(total)});
        ++ir;
      }
    }
    return elems;
  }

  /// Device-side partner lookup: partner k of an element addresses the
  /// opposite history for k < hist, else the opposite batch.
  struct PartnerView {
    const uint8_t* bytes;
    int64_t axis;
  };

  void Kernel(SimDevice& dev, GpuJob& j, const Layout& lay,
              const std::vector<JoinElem>& elems) const {
    const WindowDefinition& wl = query_->window[0];
    const WindowDefinition& wr = query_->window[1];
    const uint8_t* base = j.device_in.data();
    const size_t osz = query_->output_schema.tuple_size();
    const size_t n = elems.size();
    constexpr size_t kGroupElems = 256;
    const size_t ng = (n + kGroupElems - 1) / kGroupElems;

    auto partner = [&](bool new_is_left, size_t k) -> PartnerView {
      PartnerView v;
      if (new_is_left) {  // partner from R
        if (k < lay.hr) {
          v.bytes = base + lay.off_rh + k * lay.rsz;
          v.axis = wr.time_based() ? RawTs(v.bytes)
                                   : lay.rh_first + static_cast<int64_t>(k);
        } else {
          v.bytes = base + lay.off_rb + (k - lay.hr) * lay.rsz;
          v.axis = wr.time_based()
                       ? RawTs(v.bytes)
                       : lay.r_first + static_cast<int64_t>(k - lay.hr);
        }
      } else {  // partner from L
        if (k < lay.hl) {
          v.bytes = base + lay.off_lh + k * lay.lsz;
          v.axis = wl.time_based() ? RawTs(v.bytes)
                                   : lay.lh_first + static_cast<int64_t>(k);
        } else {
          v.bytes = base + lay.off_lb + (k - lay.hl) * lay.lsz;
          v.axis = wl.time_based()
                       ? RawTs(v.bytes)
                       : lay.l_first + static_cast<int64_t>(k - lay.hl);
        }
      }
      return v;
    };

    auto for_matches = [&](size_t e, auto&& fn) {
      const JoinElem& el = elems[e];
      const bool new_is_left = el.side == 0;
      const WindowDefinition& wn = new_is_left ? wl : wr;
      const WindowDefinition& wo = new_is_left ? wr : wl;
      const uint8_t* nbytes =
          new_is_left ? base + lay.off_lb + el.idx * lay.lsz
                      : base + lay.off_rb + el.idx * lay.rsz;
      const int64_t axis_n =
          wn.time_based()
              ? RawTs(nbytes)
              : (new_is_left ? lay.l_first : lay.r_first) +
                    static_cast<int64_t>(el.idx);
      const WindowIndexRange jn = WindowsOf(wn, axis_n);
      if (jn.empty()) return;
      for (size_t k = el.scan_lo; k < el.scan_hi; ++k) {
        const PartnerView pv = partner(new_is_left, k);
        const WindowIndexRange jo = WindowsOf(wo, pv.axis);
        if (jo.lo > jn.hi) break;  // partners are axis-ordered
        if (jo.hi < jn.lo) continue;
        const uint8_t* l = new_is_left ? nbytes : pv.bytes;
        const uint8_t* r = new_is_left ? pv.bytes : nbytes;
        if (!pred_.EvalBool(l, r)) continue;
        fn(l, r);
      }
    };

    // Pass 1: count matches per element.
    std::vector<uint32_t> counts(n, 0);
    dev.ParallelFor(ng, [&](size_t g, size_t) {
      const size_t lo = g * kGroupElems, hi = std::min(n, lo + kGroupElems);
      for (size_t e = lo; e < hi; ++e) {
        uint32_t c = 0;
        for_matches(e, [&](const uint8_t*, const uint8_t*) { ++c; });
        counts[e] = c;
      }
    });

    // Prefix sum -> write offsets; compact into contiguous device memory.
    std::vector<size_t> offsets(n + 1, 0);
    for (size_t e = 0; e < n; ++e) offsets[e + 1] = offsets[e] + counts[e];
    const size_t total_rows = offsets[n];
    j.device_out.Resize(total_rows * osz);

    // Pass 2: materialize result rows.
    dev.ParallelFor(ng, [&](size_t g, size_t) {
      const size_t lo = g * kGroupElems, hi = std::min(n, lo + kGroupElems);
      for (size_t e = lo; e < hi; ++e) {
        uint8_t* dst = j.device_out.data() + offsets[e] * osz;
        for_matches(e, [&](const uint8_t* l, const uint8_t* r) {
          WriteRowFromPlans(writers_, l, r, dst, osz);
          dst += osz;
        });
      }
    });
    j.complete_bytes = total_rows * osz;
  }

  CompiledExpr pred_;
  std::vector<FieldPlan> writers_;
};

// ---------------------------------------------------------------------------
// UDF collection kernel: fragment collection for user-defined window
// operator functions (udf_operator.h). One work group per pane ("tuples that
// are part of the same window are assigned to the same work group", §5.4)
// copies the pane's tuples into contiguous device memory; the UDF itself
// runs in the assembly stage on a CPU worker. Pane boundaries come from the
// CPU pre-pass, like every window-boundary computation.
// ---------------------------------------------------------------------------

class GpuUdfOperator final : public GpuOperatorBase {
 public:
  GpuUdfOperator(const QueryDef* q, SimDevice* device)
      : GpuOperatorBase(q, device) {}

  void SubmitAsync(const TaskContext& ctx, TaskResult* out,
                   std::function<void()> done) const override {
    GpuJob* job = device_->AcquireJob();
    job->task_id = ctx.task_id;
    job->num_spans = ctx.num_inputs;
    UdfAxisHeader h;
    for (int i = 0; i < ctx.num_inputs; ++i) {
      job->host_input[i] = ctx.input[i].data;
      job->input_bytes[i] = ctx.input[i].data.total();
      h.axis_p[i] = ctx.input[i].AxisP(query_->window[i]);
      h.axis_q[i] = ctx.input[i].AxisQ(query_->window[i]);
    }
    job->axis_p = h.axis_p[0];
    job->axis_q = h.axis_q[0];
    job->result = out;
    SimDevice* dev = device_;
    job->on_complete = [dev, done = std::move(done)](GpuJob* j) {
      dev->ReleaseJob(j);
      done();
    };
    // CPU-side window-boundary computation, per input.
    std::array<std::vector<PaneRange>, 2> ranges;
    for (int i = 0; i < ctx.num_inputs; ++i) {
      ranges[i] = ComputePaneRanges(ctx.input[i], query_->window[i]);
    }
    const int num_inputs = ctx.num_inputs;
    job->kernel = [this, h, ranges = std::move(ranges),
                   num_inputs](SimDevice& d, GpuJob& j) {
      Kernel(d, j, h, ranges, num_inputs);
    };
    device_->Submit(job);
  }

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    static_cast<UdfAssembly*>(state)->Ingest(result, output);
  }
  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return std::make_unique<UdfAssembly>(*query_);
  }

 private:
  void Kernel(SimDevice& dev, GpuJob& j, const UdfAxisHeader& h,
              const std::array<std::vector<PaneRange>, 2>& ranges,
              int num_inputs) const {
    // Flatten (input, pane) pairs and lay out the output: header first, then
    // pane payloads in input-major, pane-index order (the CPU layout).
    struct Slot {
      int input;
      const PaneRange* range;
      size_t dst_off;
      size_t src_off;
      size_t bytes;
    };
    std::vector<Slot> slots;
    size_t total = sizeof(UdfAxisHeader);
    size_t src_base = 0;
    for (int i = 0; i < num_inputs; ++i) {
      const size_t tsz = query_->input_schema[i].tuple_size();
      for (const PaneRange& r : ranges[i]) {
        const size_t bytes = static_cast<size_t>(r.hi - r.lo) * tsz;
        slots.push_back(Slot{i, &r, total, src_base + r.lo * tsz, bytes});
        total += bytes;
      }
      src_base += j.input_bytes[i];
    }
    j.device_out.Resize(total);
    std::memcpy(j.device_out.data(), &h, sizeof(h));
    const uint8_t* in = j.device_in.data();
    dev.ParallelFor(slots.size(), [&](size_t s, size_t) {
      const Slot& sl = slots[s];
      std::memcpy(j.device_out.data() + sl.dst_off, in + sl.src_off, sl.bytes);
    });
    for (const Slot& sl : slots) {
      j.panes.push_back(PaneEntry{EncodeUdfPane(sl.input, sl.range->pane),
                                  static_cast<uint32_t>(sl.dst_off),
                                  static_cast<uint32_t>(sl.bytes)});
    }
    j.partials_bytes = total;
  }
};

}  // namespace

std::unique_ptr<GpuOperatorBase> MakeGpuOperator(const QueryDef* query,
                                                 SimDevice* device) {
  if (query->is_udf()) {
    return std::make_unique<GpuUdfOperator>(query, device);
  }
  if (query->is_join()) {
    return std::make_unique<GpuJoinOperator>(query, device);
  }
  if (query->is_aggregation()) {
    return std::make_unique<GpuAggregationOperator>(query, device);
  }
  return std::make_unique<GpuStatelessOperator>(query, device);
}

}  // namespace saber
