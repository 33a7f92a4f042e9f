#pragma once

#include <vector>

#include "core/query.h"
#include "runtime/byte_buffer.h"

/// \file reference.h
/// A single-threaded, brute-force evaluator of the streaming query semantics
/// of §2.4. It makes no attempt to be fast — every window rescans the whole
/// stream — which makes it obviously correct and therefore usable as the
/// golden model in property tests: the parallel engine (any scheduler, any
/// processor mix, any task size) must produce byte-identical output.
///
/// Semantics implemented (and required of the engine):
///  - stateless queries (IStream): one output row per passing input tuple,
///    in arrival order;
///  - aggregation (RStream): window results in window-index order; a window
///    is emitted iff it received at least one raw input tuple (ungrouped) or
///    at least one filtered tuple (grouped); only windows whose end lies
///    within the covered axis range are emitted; output timestamp is the
///    maximum raw input timestamp in the window (ungrouped), or the
///    window's maximum *filtered* timestamp, shared by every group row of
///    that window (grouped); group rows are ordered by packed key bytes;
///  - session aggregation (kSession windows): sessions are maximal runs of
///    raw tuples whose consecutive timestamp gaps are <= gap; a session is
///    emitted once the stream watermark (last timestamp) passes its last
///    tuple by more than gap — the final session of a stream never emits;
///    row timestamp is the session's max raw timestamp (ungrouped; emitted
///    even when every tuple was filtered) or max filtered timestamp
///    (grouped; skipped when no tuple passes the filter);
///  - θ-join (RStream): pairs in arrival order (merge by timestamp, left
///    stream wins ties), each pair once, when the later element arrives;
///    output timestamp is max of the pair.

namespace saber {

/// Evaluates `q` over full input streams given as serialized tuple arrays.
/// Returns the serialized output stream.
ByteBuffer ReferenceEvaluate(const QueryDef& q, const std::vector<uint8_t>& s0,
                             const std::vector<uint8_t>& s1 = {});

/// Golden model of one ingress producer's bounded-disorder contract
/// (ingest/ingress_options.h): scanning `in` in arrival order, a tuple is
/// late iff its timestamp is below max_seen - lateness; late tuples are
/// appended to `rejects` (in arrival order) if given, survivors are
/// stable-sorted by timestamp (ties keep arrival order — the reorder
/// buffer's (ts, seq) heap order). The engine fed the disordered stream
/// through a producer with allowed_lateness = lateness (and a large enough
/// reorder buffer) must see exactly the returned byte stream.
std::vector<uint8_t> ReferenceReorderWithLateness(
    const std::vector<uint8_t>& in, size_t tuple_size, int64_t lateness,
    std::vector<uint8_t>* rejects = nullptr);

}  // namespace saber
