#pragma once

#include <cstdint>
#include <vector>

#include "core/query.h"

/// \file smart_grid.h
/// The smart-grid anomaly detection workload (SG, §6.1). A generator
/// stands in for the DEBS 2014 Grand Challenge trace [34]: a stream of
/// smart-meter load readings identified by (house, household, plug). Houses carry
/// distinct base-load offsets so that SG3's anomaly condition (local average
/// above the global average) selects a stable, non-trivial subset.
///
/// Queries (Appendix A.2):
///   SG1: select timestamp, avg(value) from SmartGridStr [range 3600 slide 1]
///   SG2: ... avg(value) group by plug, household, house   [range 3600 slide 1]
///   SG3: join of the SG1 and SG2 outputs on aligned [range 1 slide 1]
///        windows where localAvgLoad > globalAvgLoad, then count per house.

namespace saber::sg {

/// {timestamp, value float, property, plug, household, house} — 32 bytes.
Schema SmartGridSchema();

struct GridOptions {
  uint32_t seed = 11;
  int num_houses = 40;
  int households_per_house = 4;
  int plugs_per_household = 3;
  int readings_per_second = 10000;
  /// Per-house load offset amplitude: house h has base load
  /// 50 + house_skew * (h % 5) so some houses run persistently hot.
  double house_skew = 10.0;
};

std::vector<uint8_t> GenerateReadings(size_t n, const GridOptions& opts = {});

/// SG windows are 3600 s in the paper; the generator produces seconds-scale
/// traces, so benchmarks may pass a scaled-down size.
QueryDef MakeSG1(int64_t window_size = 3600, int64_t slide = 1);
QueryDef MakeSG2(int64_t window_size = 3600, int64_t slide = 1);

/// SG3 is an operator graph: join(SG1.out, SG2.out) followed by a grouped
/// count. Returns the two chained query definitions; wire them with
/// Engine::Connect (join output -> count input).
struct SG3Queries {
  QueryDef join;   // inputs: SG1 output (global), SG2 output (local)
  QueryDef count;  // input: join output; counts outliers per house
};
SG3Queries MakeSG3(const QueryDef& sg1, const QueryDef& sg2);

}  // namespace saber::sg
