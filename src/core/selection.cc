#include "src/core/selection.h"

#include <algorithm>
#include <cassert>

namespace pileus::core {

namespace {

// One rank's minimum acceptable read timestamp, asked for at most once and
// only when a candidate needs it.
class RankFloor {
 public:
  RankFloor(const MinReadTimestampFn& min_read_timestamp,
            const Guarantee& guarantee)
      : min_read_timestamp_(min_read_timestamp), guarantee_(guarantee) {}

  const Timestamp& Get() {
    if (!known_) {
      value_ = min_read_timestamp_(guarantee_);
      known_ = true;
    }
    return value_;
  }

 private:
  const MinReadTimestampFn& min_read_timestamp_;
  const Guarantee& guarantee_;
  Timestamp value_;
  bool known_ = false;
};

// PNodeSla * utility for one (subSLA, replica) pair, from the replica's
// gathered inputs; `p_lat` is PNodeLat at the rank's queue-adjusted budget.
double Utility(const SubSla& sub, bool authoritative,
               const Monitor::SelectionInputs& in, double p_lat,
               RankFloor& floor, const Monitor& monitor) {
  double p_cons;
  if (sub.consistency.RequiresAuthoritative()) {
    // Strong reads: only an authoritative copy qualifies, and it qualifies by
    // construction (it holds the latest committed data).
    p_cons = authoritative ? 1.0 : 0.0;
  } else {
    // Authoritative copies satisfy every timestamp threshold.
    p_cons = authoritative
                 ? 1.0
                 : Monitor::PNodeConsFor(in.known_high, floor.Get());
  }
  if (p_cons == 0.0) {
    return 0.0;
  }
  // Server-reported queue delay has already eaten into the rank's latency
  // budget in `p_lat`: a node whose admission queue is worth 40 ms cannot
  // meet a 50 ms rank unless its RTTs fit in the remaining 10 ms.
  double util = p_cons * p_lat * in.p_up * sub.utility;
  // Degradation ladder (DESIGN.md Section 11): while the node is shedding,
  // non-authoritative ranks are discounted in proportion to how early the
  // server would shed them, so low-utility reads re-route to secondaries or
  // the cache first. Strong reads keep their full value — only an
  // authoritative copy can serve them, and the server protects them longest.
  if (!sub.consistency.RequiresAuthoritative()) {
    util *= monitor.POverloadFor(in.overloaded, sub.utility);
  }
  return util;
}

double CacheUtility(const SubSla& sub, const CacheView& cached,
                    RankFloor& floor) {
  // Strong reads need an authoritative answer; a cached copy never is.
  if (sub.consistency.RequiresAuthoritative()) {
    return 0.0;
  }
  // Unlike a replica's monitored estimates, both factors are known facts:
  // the entry invariant pins the cached staleness and the serve is local.
  if (cached.high_timestamp < floor.Get()) {
    return 0.0;
  }
  if (cached.latency_us > sub.latency_us) {
    return 0.0;
  }
  return sub.utility;
}

}  // namespace

double ExpectedUtility(const SubSla& sub, const ReplicaView& replica,
                       const MinReadTimestampFn& min_read_timestamp,
                       const Monitor& monitor) {
  Monitor::SelectionInputs in;
  in.node = replica.name;
  double p_lat = 0.0;
  monitor.GatherSelectionInputs({&in, 1}, {&sub.latency_us, 1}, {&p_lat, 1});
  RankFloor floor(min_read_timestamp, sub.consistency);
  return Utility(sub, replica.authoritative, in, p_lat, floor, monitor);
}

double ExpectedUtility(const SubSla& sub, const ReplicaView& replica,
                       const Session& session, std::string_view key,
                       MicrosecondCount now_us, const Monitor& monitor) {
  return ExpectedUtility(
      sub, replica,
      [&session, key, now_us](const Guarantee& guarantee) {
        return session.MinReadTimestamp(guarantee, key, now_us);
      },
      monitor);
}

double CacheExpectedUtility(const SubSla& sub, const CacheView& cached,
                            const MinReadTimestampFn& min_read_timestamp) {
  RankFloor floor(min_read_timestamp, sub.consistency);
  return CacheUtility(sub, cached, floor);
}

SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const Session& session, std::string_view key,
                             MicrosecondCount now_us, const Monitor& monitor,
                             const SelectionOptions& options, Random* rng) {
  return SelectTarget(
      sla, replicas, nullptr,
      [&session, key, now_us](const Guarantee& guarantee) {
        return session.MinReadTimestamp(guarantee, key, now_us);
      },
      monitor, options, rng);
}

SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const CacheView* cached, const Session& session,
                             std::string_view key, MicrosecondCount now_us,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng) {
  return SelectTarget(
      sla, replicas, cached,
      [&session, key, now_us](const Guarantee& guarantee) {
        return session.MinReadTimestamp(guarantee, key, now_us);
      },
      monitor, options, rng);
}

SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const MinReadTimestampFn& min_read_timestamp,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng) {
  return SelectTarget(sla, replicas, nullptr, min_read_timestamp, monitor,
                      options, rng);
}

SelectionResult SelectTarget(const Sla& sla,
                             const std::vector<ReplicaView>& replicas,
                             const CacheView* cached,
                             const MinReadTimestampFn& min_read_timestamp,
                             const Monitor& monitor,
                             const SelectionOptions& options, Random* rng) {
  SelectionResult result;
  if (sla.empty()) {
    return result;
  }

  // Everything Figure 8 reads from the monitor, in one locked pass: the
  // per-replica estimates and PNodeLat at every rank's budget. The rest of
  // the selection runs on these copies without the lock.
  const size_t ranks = sla.size();
  std::vector<Monitor::SelectionInputs> inputs(replicas.size());
  std::vector<MicrosecondCount> latency_bounds(ranks);
  std::vector<double> p_lat(replicas.size() * ranks);
  for (size_t i = 0; i < replicas.size(); ++i) {
    inputs[i].node = replicas[i].name;
  }
  for (size_t rank = 0; rank < ranks; ++rank) {
    latency_bounds[rank] = sla[rank].latency_us;
  }
  monitor.GatherSelectionInputs(inputs, latency_bounds, p_lat);

  // Replicas behind an open circuit breaker are excluded up front: their
  // PNodeUp is 0, so they can only ever tie at utility 0, and a zero-utility
  // retry should go to a replica that might answer. If *every* breaker is
  // open there is no better option, so the filter is waived.
  const auto breaker_open = [&inputs](size_t i) {
    return inputs[i].breaker == Monitor::BreakerState::kOpen;
  };
  bool skip_open_breakers = false;
  if (options.avoid_open_breaker) {
    for (size_t i = 0; i < replicas.size(); ++i) {
      skip_open_breakers = skip_open_breakers || !breaker_open(i);
    }
  }
  const auto eligible = [&](size_t i) {
    return !skip_open_breakers || !breaker_open(i);
  };

  // Figure 8: maxutil starts below any achievable utility so the first pair
  // always becomes the initial candidate. Alongside, the cache
  // pseudo-replica's best utility and the earliest rank reaching it. Its
  // per-rank utility is deterministic (0 or sub.utility), so a strict >
  // keeps the highest-ranked winning subSLA, mirroring Figure 8.
  double maxutil = -1.0;
  std::vector<double> node_best(replicas.size(), -1.0);
  double cache_util = 0.0;
  int cache_rank = -1;
  for (size_t rank = 0; rank < ranks; ++rank) {
    const SubSla& sub = sla[rank];
    RankFloor floor(min_read_timestamp, sub.consistency);
    if (cached != nullptr) {
      const double util = CacheUtility(sub, *cached, floor);
      if (util > cache_util) {
        cache_util = util;
        cache_rank = static_cast<int>(rank);
      }
    }
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (!eligible(i)) {
        continue;
      }
      const double util = Utility(sub, replicas[i].authoritative, inputs[i],
                                  p_lat[i * ranks + rank], floor, monitor);
      node_best[i] = std::max(node_best[i], util);
      if (util > maxutil) {
        maxutil = util;
        result.target_rank = static_cast<int>(rank);
        result.candidates.clear();
        result.candidates.push_back(static_cast<int>(i));
      } else if (util == maxutil) {
        // Only extend the node set; the target subSLA stays the
        // highest-ranked one that reached maxutil (Figure 8 semantics).
        if (std::find(result.candidates.begin(), result.candidates.end(),
                      static_cast<int>(i)) == result.candidates.end()) {
          result.candidates.push_back(static_cast<int>(i));
        }
      }
    }
  }

  if (replicas.empty()) {
    // Degenerate but well-defined: the cache is the only copy in reach.
    if (cache_rank >= 0) {
      result.cache_selected = true;
      result.target_rank = cache_rank;
      result.expected_utility = cache_util;
    }
    return result;
  }
  result.expected_utility = std::max(maxutil, 0.0);

  // Tie-break among candidates.
  assert(!result.candidates.empty());
  int chosen = result.candidates.front();
  switch (options.tie_break) {
    case TieBreak::kClosest: {
      MicrosecondCount best_latency = inputs[chosen].mean_latency_us;
      for (int candidate : result.candidates) {
        const MicrosecondCount lat = inputs[candidate].mean_latency_us;
        if (lat < best_latency) {
          best_latency = lat;
          chosen = candidate;
        }
      }
      break;
    }
    case TieBreak::kRandom: {
      if (rng != nullptr && result.candidates.size() > 1) {
        chosen = result.candidates[rng->NextUint64(result.candidates.size())];
      }
      break;
    }
    case TieBreak::kFreshest: {
      Timestamp best_high = inputs[chosen].known_high;
      for (int candidate : result.candidates) {
        const Timestamp& high = inputs[candidate].known_high;
        if (high > best_high) {
          best_high = high;
          chosen = candidate;
        }
      }
      break;
    }
  }
  result.node_index = chosen;

  // Section 6.3: widen the candidate set to "roughly the same service" for
  // parallel-Get fan-out. The single-node choice above used exact ties only.
  if (options.candidate_epsilon > 0.0) {
    for (size_t i = 0; i < replicas.size(); ++i) {
      if (eligible(i) &&
          node_best[i] >= maxutil - options.candidate_epsilon &&
          std::find(result.candidates.begin(), result.candidates.end(),
                    static_cast<int>(i)) == result.candidates.end()) {
        result.candidates.push_back(static_cast<int>(i));
      }
    }
  }

  // Order candidates best-first for parallel-Get fan-out: the chosen node
  // first, the rest by the active tie-break policy's metric (mean latency).
  std::sort(result.candidates.begin(), result.candidates.end(),
            [&](int a, int b) {
              if (a == chosen) {
                return b != chosen;
              }
              if (b == chosen) {
                return false;
              }
              return inputs[a].mean_latency_us < inputs[b].mean_latency_us;
            });

  // Splice the cache pseudo-replica into the Figure 8 ordering: rank-major,
  // cache first within each rank. It therefore wins an exact utility tie at
  // its own (or an earlier) rank, but a replica that reached the same
  // utility at an earlier rank keeps the target — "keep the earlier target
  // on equality". The network choice above stays intact as the fallback.
  if (cache_rank >= 0 &&
      (cache_util > maxutil ||
       (cache_util == maxutil && cache_rank <= result.target_rank))) {
    result.cache_selected = true;
    result.target_rank = cache_rank;
    result.expected_utility = cache_util;
  }
  return result;
}

}  // namespace pileus::core
