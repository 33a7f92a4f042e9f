#pragma once

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/operator.h"
#include "core/schedulers.h"
#include "core/task.h"
#include "core/task_size_controller.h"
#include "core/throughput_matrix.h"
#include "gpu/gpu_operators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/circular_buffer.h"
#include "runtime/object_pool.h"

/// \file engine.h
/// The SABER engine (§4, Fig. 4): dispatching stage → system-wide task queue
/// → scheduling stage (HLS) → execution on CPU cores and the simulated GPGPU
/// → result stage with ordered assembly and output-stream construction.
///
/// Threading model (§4 "worker thread model"): each CPU worker handles the
/// complete task lifecycle — it asks the scheduler for a task, executes the
/// batch operator function, stores the fragment results, performs in-order
/// assembly when it holds the per-query assembly token, appends to the
/// output stream and releases input-buffer free pointers. One dedicated
/// worker drives the GPGPU, keeping up to pipeline_depth tasks in flight
/// through the five-stage pipeline (§5.2).
///
/// Queries are chained by connecting one query's (ordered) output stream to
/// another's input (used by SG3, LRB2 and LRB4).
///
/// Dynamic query lifecycle: unlike the paper's fixed query set, queries may
/// be admitted (TryAddQuery) and removed (RemoveQuery) while the engine is
/// running. The registry is a fixed array of slots; the dispatch, execution
/// and result stages read a lock-free per-slot pointer, and removal quiesces
/// in phases (see docs/architecture.md, "Query lifecycle & admission")
/// before the slot is retired and recycled.

namespace saber {

namespace ingest {
class ShardedIngress;
struct IngressOptions;
}  // namespace ingest

enum class SchedulerKind { kHls, kFcfs, kStatic };

/// Engine configuration. Every field below lists its unit, default, and the
/// options it interacts with; docs/architecture.md walks through where each
/// one acts in the data path, and the README carries the same table.
struct EngineOptions {
  /// CPU worker threads (each one models a bound physical core, §4).
  /// Unit: threads. Default: 4. At least one of num_cpu_workers > 0 /
  /// use_gpu must hold or Start() aborts (a worker-less engine would accept
  /// inserts and hang in Drain).
  int num_cpu_workers = 4;
  /// Attach the simulated GPGPU (adds one GPGPU worker thread plus the
  /// device's five stage threads and executor pool). Default: true.
  /// Interacts with `device` (ignored when false) and `static_assignment`
  /// (assigning a query to Processor::kGpu without a GPGPU wedges it).
  bool use_gpu = true;
  /// Simulated device shape: executor pool size, PCIe pacing, pipeline
  /// depth (§5.2). Only read when use_gpu is true; see gpu/sim_device.h.
  SimDeviceOptions device;

  /// Query task size φ. Unit: bytes; rounded down per query to a non-zero
  /// multiple of the input tuple size. Default: 1 MiB. This is the central
  /// throughput/latency knob of §6.4 (Fig. 12). With an adaptive
  /// `task_sizing` policy this is the *maximum* φ — the controller moves
  /// the live φ within [task_sizing.min_task_size, task_size].
  size_t task_size = 1 << 20;

  /// Adaptive task sizing (extension; cf. Das et al. [25], contrasted in
  /// §7): policy selection plus per-policy knobs. The default policy
  /// (kFixedPhi) keeps φ pinned at `task_size`; the AIMD/guard policies
  /// re-tune each query's φ from observed task latencies. See
  /// core/task_size_controller.h for the per-field docs.
  TaskSizeControllerOptions task_sizing;

  /// Circular input buffer capacity per stream (§4.1). Unit: bytes.
  /// Default: 64 MiB. Bounds producer back-pressure: inserts block once
  /// unconsumed + window-history bytes reach this. Must comfortably exceed
  /// φ (`task_size`) plus the largest window extent, or dispatch starves.
  size_t input_buffer_size = size_t{64} << 20;
  /// System-wide task queue bound (dispatch back-pressure). Unit: tasks.
  /// Default: 256. Producer-thread pushes block when full; worker-context
  /// pushes (connected queries) force past it — see TaskQueue::Push.
  size_t task_queue_capacity = 256;

  /// Registered-query capacity: the fixed number of query *slots* the
  /// engine, throughput matrix and schedulers size their per-query state
  /// for. Unit: queries. Default: 64 (must be <= kMaxQuerySlots).
  /// TryAddQuery fails with ResourceExhausted when every slot holds a
  /// non-retired query; RemoveQuery recycles slots.
  size_t max_queries = 64;

  /// Scheduling-stage policy: kHls (Alg. 1 + weighted-fair tenant
  /// selection), kFcfs, or kStatic. Default: kHls. kStatic additionally
  /// requires `static_assignment`.
  SchedulerKind scheduler = SchedulerKind::kHls;
  /// HLS switch threshold n (Alg. 1): consecutive same-processor executions
  /// of a query before the other processor may "explore" it. Unit: tasks.
  /// Default: 20. Only read under kHls.
  int switch_threshold = 20;
  /// HLS queue-scan bound — how many queued tasks the lookahead walks
  /// before giving up; 1 disables lookahead (head-only). Unit: tasks.
  /// Default: 64. Only read under kHls.
  size_t hls_lookahead = 64;
  /// Static assignment (query index -> processor) for SchedulerKind::kStatic;
  /// unassigned queries run anywhere. Ignored by the other schedulers.
  std::map<int, Processor> static_assignment;
  /// Throughput matrix refresh interval (100 ms in §6.6). Unit: nanoseconds.
  /// Default: 100 ms. Shorter reacts faster but publishes noisier rates to
  /// HLS and (under kThroughputGuard) to the task-size controller.
  int64_t matrix_update_nanos = 100'000'000;
  /// Initial uniform rate for the throughput matrix. Unit: tasks/s.
  /// Default: 100. Until real completions refresh a cell, HLS plans with
  /// this value (the paper's "uniform assumption").
  double matrix_initial_rate = 100.0;

  /// GPGPU failover (docs/architecture.md §14). A task the device fails is
  /// requeued at the queue front narrowed to the CPU (when CPU workers
  /// exist) and the device's published rate is multiplied by
  /// `gpu_failure_decay` so HLS steers away. After
  /// `gpu_quarantine_threshold` *consecutive* failures the GPGPU worker
  /// stops submitting for `gpu_quarantine_nanos`, then lets a single probe
  /// task through; a successful probe lifts the quarantine, a failed one
  /// re-arms the window. Unit: tasks / nanoseconds / factor.
  int gpu_quarantine_threshold = 3;
  int64_t gpu_quarantine_nanos = 50'000'000;
  double gpu_failure_decay = 0.5;

  /// Metrics registry every engine counter registers on (obs/metrics.h).
  /// Null (the default) makes the engine own a private registry, readable
  /// via Engine::metrics(); pass one to aggregate several engines — or an
  /// engine plus its network front end — into a single /metrics exposition.
  /// A borrowed registry must outlive the engine.
  obs::MetricsRegistry* metrics = nullptr;

  /// Task-path tracing sample rate in [0, 1] (obs/trace.h). 0 (default)
  /// disables tracing entirely — the trace ring is not even constructed and
  /// the per-task cost is one pointer test. At rate r each dispatched task
  /// is sampled independently; sampled tasks stamp six stage timestamps and
  /// publish a span on completion.
  double trace_sample_rate = 0.0;
  /// Completed spans retained by the bounded trace ring (oldest overwritten
  /// past this). Unit: spans. Default: 8192 (~1 MiB).
  size_t trace_ring_spans = 8192;
};

class Engine;

/// Engine-internal per-query state (defined in engine.cc). Forward-declared
/// here so a QueryHandle can share ownership: the handle keeps the struct —
/// and with it every statistics counter — alive after the query retires,
/// while the retire path frees the expensive pieces (input buffers, ingress).
struct QueryState;

/// Per-query facade: input ingestion, output sink, statistics. Handles stay
/// valid for the engine's lifetime, across RemoveQuery: inserting into a
/// Draining/Retired query drops the tuples (counted in tuples_dropped())
/// instead of corrupting the pipeline.
class QueryHandle {
 public:
  /// Appends serialized tuples to input stream 0. Blocks on back-pressure.
  /// One logical producer per input stream (§4.1); many client threads can
  /// share one stream through the sharded ingestion stage
  /// (ingest::ShardedIngress, src/ingest/), whose watermark merger is then
  /// the single logical producer. The boundary validates that `bytes` is a
  /// multiple of the input tuple size, and — for time-based windows and
  /// two-input queries, where dispatch consumes timestamps — that
  /// timestamps never decrease within or across inserts (violations abort
  /// with a clear message instead of silently corrupting dispatch; count
  /// windows keep the repeated-feed idiom with restarting timestamps).
  void Insert(const void* tuples, size_t bytes) { InsertInto(0, tuples, bytes); }
  void InsertInto(int input, const void* tuples, size_t bytes);

  /// Ordered output callback: invoked with batches of serialized output rows
  /// in stream order, from worker threads. Legal before Engine::Start, or on
  /// a live-admitted query before its first task is dispatched; afterwards a
  /// swap would race the result stage's unsynchronized sink calls, so the
  /// call fails with InvalidArgument instead (lifecycle misuse is a Status,
  /// not an abort). The returned Status may be ignored by pre-Start callers.
  Status SetSink(std::function<void(const uint8_t*, size_t)> sink);

  /// Creates a sharded multi-producer ingress front (src/ingest/) for input
  /// `input`, owned by the engine: RemoveQuery and engine shutdown tear it
  /// down (revoke producers → drain the watermark merger → stop). At most
  /// one engine-managed ingress per input. Forwards to
  /// Engine::AttachIngress.
  Result<ingest::ShardedIngress*> AttachIngress(
      const ingest::IngressOptions& options, int input = 0);

  const QueryDef& def() const;
  const Schema& output_schema() const;

  /// Registry slot of this query (stable until retirement; slots are
  /// recycled by later admissions).
  int index() const { return index_; }
  /// Current lifecycle state (racy snapshot).
  QueryLifecycle lifecycle() const;
  /// Weighted-fair scheduling share (QueryDef::weight).
  double weight() const;

  int64_t bytes_in() const;
  int64_t tuples_in() const;
  int64_t rows_out() const;
  /// Tuples rejected because they arrived while the query was Draining or
  /// Retired (survivor-correctness metric for the churn bench).
  int64_t tuples_dropped() const;
  /// Current query task size φ (differs from EngineOptions::task_size only
  /// under an adaptive task_sizing policy).
  size_t current_task_size() const;
  /// Snapshot of this query's task-size controller (live φ, adjust/clamp
  /// counts, last observed interval p99). Callable from any thread.
  ControllerStats controller_stats() const;
  /// Tasks / bytes executed per processor (the Fig. 7 CPU/GPGPU split).
  int64_t tasks_on(Processor p) const;
  int64_t bytes_on(Processor p) const;
  /// End-to-end task latency: dispatch -> output emission.
  const obs::Histogram& latency() const;
  /// Labels identifying this query's registry series: {query=<name or
  /// q<index>>, slot=<index>}. The slot disambiguates same-named live
  /// queries; a recycled slot restarts its series (a counter reset on the
  /// wire).
  obs::Labels metric_labels() const;

 private:
  friend class Engine;
  QueryHandle(Engine* engine, int index, std::shared_ptr<QueryState> qs)
      : engine_(engine), index_(index), qs_(std::move(qs)) {}
  Engine* engine_;
  int index_;
  std::shared_ptr<QueryState> qs_;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a query; callable before Start *and* on a live engine (the
  /// new query starts Running immediately). The handle remains owned by the
  /// engine. Aborts on an invalid definition or exhausted capacity — the
  /// fluent-call tail for trusted definitions; services validating user
  /// input use TryAddQuery.
  QueryHandle* AddQuery(QueryDef def);

  /// Status-returning admission: validates the definition (ValidateLimits,
  /// weight > 0, expression stack depth <= CompiledExpr::kMaxStack) and
  /// capacity (max_queries slots), allocates the query's
  /// buffers and operators, and splices it into the dispatcher — on a
  /// running engine the query is schedulable when this returns.
  /// InvalidArgument on a bad definition, ResourceExhausted when every slot
  /// is occupied.
  Result<QueryHandle*> TryAddQuery(QueryDef def);

  /// Removes a query from a (possibly running) engine. Quiesces in phases:
  /// tear down the engine-managed ingress (revoke producers, drain staged
  /// tuples through the watermark merger into the still-running query),
  /// stop accepting inserts (lifecycle → Draining; later inserts drop and
  /// count), flush the sub-φ remainder, wait for in-flight tasks and the
  /// assembly line to complete, then retire: sweep the task queue, free the
  /// input buffers, reset the matrix/scheduler slot and recycle it. The
  /// handle stays valid for statistics. Errors: NotFound (handle unknown to
  /// this engine), InvalidArgument (already Draining/Retired, one half of a
  /// Connect pair, or called from an engine worker thread — a worker
  /// waiting on its own pipeline would deadlock).
  Status RemoveQuery(QueryHandle* query);

  /// Routes `from`'s output stream into input `input` of `to` (operator
  /// graphs spanning multiple queries: SG3, LRB4). Connected queries form
  /// one pipeline and cannot be individually removed.
  void Connect(QueryHandle* from, QueryHandle* to, int input = 0);

  /// Engine-managed sharded ingress for `q`'s input `input` (see
  /// QueryHandle::AttachIngress).
  Result<ingest::ShardedIngress*> AttachIngress(
      QueryHandle* q, int input, const ingest::IngressOptions& options);

  void Start();

  /// Flushes sub-batch remainders and blocks until every dispatched task has
  /// been executed and assembled (including tasks spawned through query
  /// connections), then stops the workers. Event-driven: sleeps on the
  /// assembly-completion channel instead of polling.
  void Drain();

  /// Immediate stop (pending tasks are abandoned).
  void Stop();

  /// Queries currently occupying a slot (Admitted/Running/Draining).
  size_t num_live_queries() const;

  const ThroughputMatrix& matrix() const { return *matrix_; }
  ThroughputMatrix& matrix() { return *matrix_; }
  SimDevice* device() { return device_.get(); }
  size_t queue_depth() const { return task_queue_->size(); }
  const EngineOptions& options() const { return options_; }

  /// Device-failed tasks retried (requeued CPU-narrowed) by the failover
  /// path, and quarantine episodes entered (gpu_quarantine_threshold
  /// consecutive failures). Both zero in fault-free runs.
  int64_t gpu_task_retries() const { return gpu_task_retries_.value(); }
  int64_t device_quarantines() const { return device_quarantines_.value(); }

  /// The metrics registry this engine's counters live on — owned unless
  /// EngineOptions::metrics supplied one. `metrics()->Snapshot()` is the
  /// DumpMetrics API; net::HttpMetricsServer serves the same registry.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  /// The task-path trace ring, or nullptr when trace_sample_rate == 0.
  obs::TraceRing* trace() const { return trace_.get(); }

 private:
  friend class QueryHandle;

  void InsertInto(QueryState& qs, int input, const void* tuples, size_t bytes);
  Status SetSinkFor(QueryState& qs,
                    std::function<void(const uint8_t*, size_t)> sink);
  void TryCreateTasks(QueryState& qs);
  bool FlushRemainder(QueryState& qs);
  void CreateSingleInputTask(QueryState& qs, int64_t end_pos);
  bool TryCreateJoinTask(QueryState& qs, bool flush);
  /// Trace-sampling decision for a freshly cut task (resets the pooled
  /// task's span fields). One pointer test when tracing is off.
  void SampleForTrace(QueryState& qs, QueryTask* t);
  void PushTask(QueryState& qs, QueryTask* task);

  TaskContext BuildContext(QueryState& qs, const QueryTask& t) const;
  SpanPair SpanFor(const CircularBuffer& buf, int64_t from, int64_t to) const;

  void CpuWorkerLoop(int worker_id);
  void GpuWorkerLoop();
  void StoreAndAssemble(QueryState& qs, QueryTask* task, TaskResult* result,
                        Processor p);
  void TryAssemble(QueryState& qs);

  int64_t TsAt(const CircularBuffer& buf, const Schema& schema,
               int64_t pos) const;

  /// Live QueryState for a slot, or nullptr. Lock-free: the pointer is
  /// guaranteed non-null while any task of the slot's query is dispatched
  /// and not yet assembled (retire waits for the counters to converge).
  QueryState* LiveSlot(int index) const {
    return live_[static_cast<size_t>(index)].load(std::memory_order_acquire);
  }
  /// Registry snapshot (shared ownership) for control-plane iteration.
  std::vector<std::shared_ptr<QueryState>> SnapshotQueries() const;
  /// Final teardown of a quiesced query. Caller holds registry_mu_.
  void RetireLocked(const std::shared_ptr<QueryState>& qs);

  /// Registers a freshly admitted query's counters on metrics_. Caller
  /// holds registry_mu_.
  void RegisterQueryMetricsLocked(QueryState& qs);

  EngineOptions options_;
  /// Declared first so it is destroyed last: external series registered by
  /// engine-owned components stay valid for any Snapshot taken while the
  /// engine is alive. (With a borrowed registry, ~Engine unregisters.)
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<obs::TraceRing> trace_;
  // Destruction order: queries (operators) must die before the device, so
  // every QueryState owner (registry_, handles_) is declared after device_.
  std::unique_ptr<SimDevice> device_;
  std::unique_ptr<ThroughputMatrix> matrix_;
  std::unique_ptr<TaskQueue> task_queue_;
  std::unique_ptr<Scheduler> policy_;
  std::unique_ptr<ObjectPool<QueryTask>> task_pool_;
  std::unique_ptr<ObjectPool<TaskResult>> result_pool_;

  /// Query registry. Writers (admission, retirement, Connect bookkeeping)
  /// serialize on registry_mu_; the data path never takes it — workers and
  /// the dispatcher go through live_, a fixed array of per-slot atomic
  /// pointers (RCU-flavored: writers publish/retract, readers are
  /// lock-free, and retirement is deferred until no reader can hold the
  /// pointer — the quiesce phases play the role of the grace period).
  /// registry_ holds the owning references; handles_ co-own so statistics
  /// outlive retirement; slot i is free iff registry_[i] == nullptr.
  mutable std::mutex registry_mu_;
  std::vector<std::shared_ptr<QueryState>> registry_;
  std::unique_ptr<std::atomic<QueryState*>[]> live_;
  /// Connect edges (from-slot, to-slot): members of a connected pair are
  /// not individually removable.
  std::vector<std::pair<int, int>> connections_;
  std::vector<std::unique_ptr<QueryHandle>> handles_;

  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  /// GPGPU failover counters (see the public accessors); registered on
  /// metrics_ as saber_gpu_task_retries_total / saber_gpu_quarantines_total.
  obs::Counter gpu_task_retries_;
  obs::Counter device_quarantines_;

  /// True on engine worker threads (CPU workers and the GPGPU worker).
  /// Worker-context task dispatch — a connected query's sink running inside
  /// the result stage — must bypass the task queue's capacity bound, or a
  /// worker holding an assembly token can deadlock against its own queue
  /// (see TaskQueue::Push).
  static thread_local bool in_worker_thread_;

  /// Drain's and RemoveQuery's wakeup channel (the "drained condition"):
  /// bumped (futex notify) by TryAssemble after every assembly batch and by
  /// Stop after the workers join; waiters read it before their idleness
  /// check and sleep until it changes, so a completion landing mid-check is
  /// never lost. 32-bit for the raw-futex fast path; wrap-around is
  /// harmless (inequality compare only).
  std::atomic<uint32_t> assembly_gen_{0};
};

}  // namespace saber
