#pragma once

#include <cstdint>
#include <vector>

#include "core/query.h"

/// \file cluster_monitoring.h
/// The compute-cluster monitoring workload (CM, §6.1). The paper replays the
/// Google cluster trace [53]; we generate a synthetic equivalent:
/// timestamped task events with job/task/machine identifiers,
/// an event type, scheduling class ("category"), priority and resource
/// requests. The property §6.6 depends on — bursts of task-failure events
/// that raise the selectivity of failure-filtering queries — is reproduced
/// with a configurable surge schedule.
///
/// Queries (Appendix A.1):
///   CM1: select timestamp, category, sum(cpu) from TaskEvents
///        [range 60 slide 1] group by category
///   CM2: select timestamp, jobId, avg(cpu) from TaskEvents
///        [range 60 slide 1] where eventType == 3 group by jobId

namespace saber::cm {

/// Google-trace event types (subset).
enum EventType : int32_t {
  kSubmit = 0,
  kSchedule = 1,
  kEvict = 2,
  kFail = 3,
  kFinish = 4,
  kKill = 5,
};

/// {timestamp, jobId, taskId, machineId, eventType, userId, category,
///  priority, cpu, ram, disk, constraints} — 64 bytes, mirroring the paper's
/// 12-attribute schema.
Schema TaskEventSchema();

struct SurgePeriod {
  int64_t start_ts;
  int64_t end_ts;
  double failure_probability;  // P(eventType == kFail) inside the period
};

struct TraceOptions {
  uint32_t seed = 7;
  int64_t num_jobs = 2000;
  int64_t num_machines = 11000;  // the trace's cluster size
  int num_categories = 4;        // scheduling classes 0..3
  int events_per_second = 20000;
  double base_failure_probability = 0.05;
  std::vector<SurgePeriod> surges;  // e.g. {{10, 15, 0.9}}
};

/// Generates `n` events spanning n / events_per_second seconds.
std::vector<uint8_t> GenerateTrace(size_t n, const TraceOptions& opts = {});

QueryDef MakeCM1();
QueryDef MakeCM2();

}  // namespace saber::cm
