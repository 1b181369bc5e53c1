// Target subSLA and node selection (paper Section 4.6, Figure 8).
//
// For every (subSLA, replica) pair the expected utility is
//   PNodeSla(node, consistency, latency, key) * subSLA.utility
// and the client picks the pair with the maximum. Ties across nodes are
// broken by the configured policy — the paper uses "closest" (lowest mean
// latency) and mentions random and most-up-to-date as alternatives, which we
// also implement for the ablation benches. Note the subtle semantics from
// Figure 8: when a later pair merely *equals* the running maximum, the target
// subSLA keeps its earlier (higher-ranked) value and only the candidate node
// set grows.
//
// SelectTarget reads the monitor once per call, through
// Monitor::GatherSelectionInputs (one lock and one clock reading for every
// replica and rank), and asks for each rank's minimum read timestamp at
// most once. Utilities, ties and the candidate order are then computed from
// those copies.

#ifndef PILEUS_SRC_CORE_SELECTION_H_
#define PILEUS_SRC_CORE_SELECTION_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/monitor.h"
#include "src/core/session.h"
#include "src/core/sla.h"

namespace pileus::core {

// What the selection algorithm needs to know about one replica.
struct ReplicaView {
  std::string name;
  // Primary-site member (or synchronous replica): may serve strong reads.
  bool authoritative = false;
};

// What the selection algorithm needs to know about a cached copy of the key
// being read (DESIGN.md "Client cache"). Unlike a ReplicaView, whose
// staleness and latency are *estimated* by the Monitor, both are exactly
// known here: the entry invariant guarantees the cached version is the
// newest committed one at or below high_timestamp, and serving is local.
// The cache is never authoritative, so strong subSLAs ignore it.
struct CacheView {
  // The cached entry's valid_through bound.
  Timestamp high_timestamp;
  // Modelled latency of serving from the cache (usually 0).
  MicrosecondCount latency_us = 0;
};

enum class TieBreak {
  kClosest = 0,   // Lowest mean monitored latency (paper default).
  kRandom = 1,    // Load balancing alternative.
  kFreshest = 2,  // Highest known high timestamp.
};

struct SelectionOptions {
  TieBreak tie_break = TieBreak::kClosest;
  // Nodes whose best expected utility is within this of the maximum are
  // reported as candidates ("predicted to provide roughly the same service",
  // Section 6.3) for parallel-Get fan-out. 0 = exact ties only. Does not
  // affect which single node is chosen.
  double candidate_epsilon = 0.0;
  // Skip replicas whose circuit breaker is open (see Monitor::Breaker).
  // An open breaker already forces PNodeUp to 0, so such a node can never
  // win on utility; this flag additionally keeps it out of the candidate
  // set when *every* utility is zero (total outage under a strict SLA), so
  // availability retries start at a replica that might actually answer.
  // When all replicas have open breakers the filter is waived - someone has
  // to be asked.
  bool avoid_open_breaker = true;
};

struct SelectionResult {
  int target_rank = -1;           // Chosen subSLA (0-based).
  int node_index = -1;            // Chosen replica.
  double expected_utility = 0.0;  // maxutil from Figure 8.
  // The client cache pseudo-replica won: serve locally. target_rank and
  // expected_utility describe the cache's subSLA; node_index and candidates
  // still describe the best *network* choice, which is the fallback if the
  // local serve cannot honor the claim at execution time. The cache is
  // never listed in candidates — parallel-Get fan-out is a network concept.
  bool cache_selected = false;
  // All replicas that tied at maxutil, before tie-breaking (ascending index);
  // parallel Gets (Section 6.3) fan out across a prefix of these.
  std::vector<int> candidates;
};

// Supplies the minimum acceptable read timestamp per guarantee; point Gets
// bind a (session, key) pair, range scans bind the session's scan state.
using MinReadTimestampFn = std::function<Timestamp(const Guarantee&)>;

// Expected utility of sending a Get for `key` to `replica` under `sub`,
// i.e. PNodeSla * utility with the strong-consistency authoritativeness rule
// applied.
double ExpectedUtility(const SubSla& sub, const ReplicaView& replica,
                       const Session& session, std::string_view key,
                       MicrosecondCount now_us, const Monitor& monitor);
double ExpectedUtility(const SubSla& sub, const ReplicaView& replica,
                       const MinReadTimestampFn& min_read_timestamp,
                       const Monitor& monitor);

// Expected utility of serving `sub` from the cached copy. Deterministic
// (0 or sub.utility): the cached staleness and serve latency are known, not
// monitored estimates, and the cache is never up/down or authoritative.
double CacheExpectedUtility(const SubSla& sub, const CacheView& cached,
                            const MinReadTimestampFn& min_read_timestamp);

// Figure 8. Returns target_rank/node_index of -1 only when `replicas` is
// empty.
SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const Session& session, std::string_view key,
                             MicrosecondCount now_us, const Monitor& monitor,
                             const SelectionOptions& options, Random* rng);
SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const MinReadTimestampFn& min_read_timestamp,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng);

// Figure 8 with the client cache as an extra zero-RTT pseudo-replica
// (`cached` may be null: no usable entry for this key). The iteration order
// is rank-major with the cache considered *first* within each rank, so the
// cache wins exact ties at its own rank ("keep the earlier target on
// equality") but never displaces a replica that reached the same utility at
// an earlier rank. The cache never joins `candidates` and is never widened
// in by candidate_epsilon.
SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const CacheView* cached, const Session& session,
                             std::string_view key, MicrosecondCount now_us,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng);
SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const CacheView* cached,
                             const MinReadTimestampFn& min_read_timestamp,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng);

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_SELECTION_H_
