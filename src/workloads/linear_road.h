#pragma once

#include <cstdint>
#include <vector>

#include "core/query.h"

/// \file linear_road.h
/// The Linear Road Benchmark workload (LRB, §6.1) [8]: position reports of
/// vehicles on a network of toll roads. The generator models
/// vehicles advancing along highways with congestion waves, so that LRB3's
/// HAVING avgSpeed < 40 selects congested segments.
///
/// Queries (Appendix A.3):
///   LRB1: segment projection over an unbounded window.
///   LRB2: vehicles entering a new segment — the paper uses a partition-by-
///         vehicle rows-1 window joined with a 30 s window; we express it as
///         a self-join of the segment stream (30 s window against a 1 s
///         window on vehicle equality and segment inequality), which detects
///         the same segment-entry events.
///   LRB3: average speed per (highway, direction, segment) over [300, 1]
///         with HAVING avgSpeed < 40.
///   LRB4: vehicle counts per segment — nested aggregation, expressed as two
///         chained queries.

namespace saber::lrb {

/// {timestamp, vehicle, speed float, highway, lane, direction, position} —
/// 32 bytes.
Schema PositionSchema();

struct RoadOptions {
  uint32_t seed = 13;
  int num_vehicles = 5000;
  int num_highways = 4;
  int num_segments = 100;       // per highway (segment = position / 5280)
  int reports_per_second = 20000;
  /// Fraction of segments congested at any time (speeds drop below 40 mph).
  double congestion_fraction = 0.2;
};

std::vector<uint8_t> GenerateReports(size_t n, const RoadOptions& opts = {});

QueryDef MakeLRB1();

/// Self-join segment-entry detection; both inputs are the position stream.
QueryDef MakeLRB2();

QueryDef MakeLRB3(int64_t window_size = 300, int64_t slide = 1);

/// LRB4 nested aggregation: inner counts per (highway, direction, segment,
/// vehicle) over [30, 1]; outer counts vehicles per (highway, direction,
/// segment). Wire inner -> outer with Engine::Connect.
struct LRB4Queries {
  QueryDef inner;
  QueryDef outer;
};
LRB4Queries MakeLRB4();

}  // namespace saber::lrb
