#pragma once

#include <cstdint>
#include <vector>

#include "core/query.h"
#include "workloads/synthetic.h"

/// \file workloads.h
/// The queries and input shapes of the three workloads, shared by the
/// runners and the checker self-test.

namespace perfbench {

/// One block of the synthetic stream (syn::Generate: 32-byte tuples, 64 per
/// timestamp, attributes uniform in [0, 100)), seeded from --seed.
inline saber::syn::GeneratorOptions BlockOptions(uint64_t seed) {
  saber::syn::GeneratorOptions o;
  o.seed = static_cast<uint32_t>(seed * 2654435761u + 17u);
  o.tuples_per_ts = 64;
  return o;
}
inline std::vector<uint8_t> MakeBlock(uint64_t seed, size_t tuples) {
  return saber::syn::Generate(tuples, BlockOptions(seed));
}

/// remote_select: a stateless selection keeping a2 < 10 (about 10%), with a
/// disorder bound the producers' jitter (syn::GenerateDisorderedShard) stays
/// inside, so reordering must change nothing.
inline constexpr int64_t kRemoteJitter = 8;
inline constexpr const char* kRemoteSql =
    "select * from Syn [range unbounded] where a2 < 10 with lateness 8";

/// hybrid_two_query: the Fig. 15 W1 pair.
inline constexpr int kProjChain = 100;
inline constexpr int64_t kCountSize = 1024;
inline constexpr int64_t kCountSlide = 512;
inline saber::QueryDef HybridProjection() {
  return saber::syn::MakeProjection(
      6, kProjChain, saber::WindowDefinition::Count(1024, 1024));
}
inline saber::QueryDef HybridGroupBy() {
  return saber::syn::MakeGroupBy(
      1, saber::WindowDefinition::Count(kCountSize, kCountSlide));
}

/// small_task_agg: sliding time-window GROUP-BY (cnt, sum(a1)) over
/// a4 mod kAggGroups.
inline constexpr int kAggGroups = 8;
inline constexpr int64_t kAggRange = 64;
inline constexpr int64_t kAggSlide = 16;
inline saber::QueryDef SmallAggregation() {
  return saber::syn::MakeGroupBy(
      kAggGroups, saber::WindowDefinition::Time(kAggRange, kAggSlide));
}

}  // namespace perfbench
