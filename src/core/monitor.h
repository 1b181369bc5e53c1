// Client-side monitor of storage nodes (paper Section 4.5).
//
// For every replica of a table the monitor records (a) a sliding window of
// round-trip latencies and (b) the maximum high timestamp it has observed.
// Both are fed by normal Gets/Puts (piggybacking) and by active probes for
// nodes that have not been contacted recently. From this state it computes
// the probability estimates the selection algorithm consumes:
//
//   PNodeLat(node, L)  - fraction of windowed RTTs below L;
//   PNodeCons(node, m) - 1 if the node's last known high timestamp >= the
//                        minimum acceptable read timestamp m, else 0. High
//                        timestamps only grow, so stale knowledge is a safe
//                        underestimate;
//   PNodeSla           - the product of the two.
//
// The optional high-timestamp predictor implements the Section 6.1 extension
// ("clients could potentially predict a node's high timestamp"): it
// extrapolates the observed high timestamp forward by the time elapsed since
// the observation, scaled by a confidence rate.
//
// Thread safety: fully synchronized. The monitor is the one piece of client
// state shared between the application thread and a background prober
// (core::ThreadedProber), so all reads and updates take an internal lock.

#ifndef PILEUS_SRC_CORE_MONITOR_H_
#define PILEUS_SRC_CORE_MONITOR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/clock.h"
#include "src/common/timestamp.h"
#include "src/monitoring/digest.h"
#include "src/util/sliding_window.h"

namespace pileus::core {

class Monitor {
 public:
  struct Options {
    SlidingWindow::Options latency_window;
    // A node unvisited for this long should be probed.
    MicrosecondCount probe_interval_us = SecondsToMicroseconds(10);
    // PNodeLat for a node with no samples: optimistic so new nodes get tried.
    double unknown_latency_estimate = 1.0;
    // Section 6.1 extension: extrapolate high timestamps between syncs.
    bool predict_high_timestamp = false;
    // Fraction of elapsed wall time credited to the predicted high timestamp.
    double prediction_rate = 1.0;
    // Per-replica circuit breaker: this many *consecutive* transport
    // failures open the breaker (0 disables it). While open, PNodeUp reports
    // 0 and NeedsProbe stays false, so selection deprioritizes the replica
    // and probes stop hammering it. After the cooldown the breaker is
    // half-open: exactly the probation probes run (NeedsProbe true again)
    // and the next success closes it; the next failure re-opens it for
    // another full cooldown.
    int breaker_failure_threshold = 3;
    MicrosecondCount breaker_cooldown_us = SecondsToMicroseconds(5);
    // Overload evidence (DESIGN.md Section 11). While a node is inside the
    // backoff window of a kOverloaded rejection, non-authoritative subSLA
    // utilities are scaled by POverload(): a rank with utility u keeps
    //   overload_penalty + (1 - overload_penalty) * min(1, u)
    // of its expected utility, so low-utility reads re-route to other
    // replicas (or the cache) first while strong and high-utility reads
    // stick with the node the server protects anyway.
    double overload_penalty = 0.2;
    // Backoff window applied when a rejection carries no retry_after hint.
    MicrosecondCount default_overload_backoff_us =
        100 * kMicrosecondsPerMillisecond;
    // EWMA smoothing factor for server-reported queue delays.
    double queue_delay_alpha = 0.3;
    // --- Fleet priors (DESIGN.md Section 12, paper Section 6.1) ---
    // A pushed ConditionDigest seeds each covered node with a prior worth
    // this many pseudo-samples when fresh. Local evidence wins as it
    // accumulates: the blend weight of the prior is
    //   k = prior_strength * max(0, 1 - prior_age / prior_ttl_us)
    // against n real windowed samples, i.e. local/prior = n/(n+k).
    double prior_strength = 8.0;
    // A prior decays to zero influence once it is this old (the priors
    // themselves have bounded staleness; a dead aggregator fades out).
    MicrosecondCount prior_ttl_us = SecondsToMicroseconds(60);
    // Probe suppression: while a node's prior is younger than this,
    // NeedsProbe reports false (the fleet already measured the node), so
    // probers skip the redundant round trip. Once the prior outgrows the
    // window, normal probing resumes - stale priors re-trigger probes.
    // Half-open circuit breakers always probe regardless.
    MicrosecondCount prior_probe_suppress_us = SecondsToMicroseconds(15);
  };

  enum class BreakerState {
    kClosed = 0,    // Healthy: requests flow normally.
    kOpen = 1,      // Tripped: selection avoids the node until the cooldown.
    kHalfOpen = 2,  // Cooldown over: probation probes decide open vs closed.
  };

  explicit Monitor(const Clock* clock) : Monitor(clock, Options{}) {}
  Monitor(const Clock* clock, Options options)
      : clock_(clock), options_(options) {}

  // --- Feeding the monitor ---

  void RecordLatency(std::string_view node, MicrosecondCount rtt_us);
  void RecordHighTimestamp(std::string_view node, const Timestamp& high);

  // Configuration evidence (Section 6.2): replies piggyback the serving
  // node's installed config epoch and its primary. Monotonic - a stale epoch
  // (delayed reply from a demoted node) never rolls the view back. Epoch 0
  // (unconfigured) is ignored.
  void RecordConfig(uint64_t epoch, std::string_view primary);

  // Reachability evidence: successes are normal replies, failures are
  // transport errors (unreachable, connection reset, deadline expired with
  // no answer). Drives PNodeUp so selection routes around dead nodes while
  // probes keep checking for recovery.
  void RecordSuccess(std::string_view node);
  void RecordFailure(std::string_view node);

  // Overload evidence (DESIGN.md Section 11). A kOverloaded rejection puts
  // the node in a backoff window of `retry_after_us` (the reply's hint; 0
  // falls back to default_overload_backoff_us) during which IsOverloaded()
  // is true and POverload() discounts non-authoritative utilities. The node
  // answered, so this neither trips the breaker nor dents PNodeUp.
  void RecordOverload(std::string_view node, MicrosecondCount retry_after_us);

  // Server-measured queue delay piggybacked on a reply; smoothed into an
  // EWMA that selection subtracts from each rank's latency budget.
  void RecordQueueDelay(std::string_view node, MicrosecondCount delay_us);

  // Everything one reply (or transport failure) tells the monitor about the
  // node it came from.
  struct ReplyEvidence {
    enum class Outcome {
      kFailure,   // RecordFailure: no answer, or the node reported itself
                  // unavailable.
      kSuccess,   // RecordSuccess: any other answer.
      kOverload,  // RecordOverload: a kOverloaded rejection.
    };
    // RecordLatency's sample; -1 records none.
    MicrosecondCount rtt_us = -1;
    Outcome outcome = Outcome::kSuccess;
    MicrosecondCount retry_after_us = 0;  // kOverload only.
    // RecordConfig's piggyback; epoch 0 records none.
    uint64_t config_epoch = 0;
    std::string_view config_primary;
    // RecordHighTimestamp and RecordQueueDelay, for served replies.
    bool has_progress = false;
    Timestamp high_timestamp = Timestamp::Zero();
    MicrosecondCount queue_delay_us = 0;
  };

  // One lock and one node lookup for what the single Record* calls above
  // would record in this order: latency, config, outcome, high timestamp,
  // queue delay. The state it leaves (state_version, total_samples and
  // samples_recorded included) is what those calls leave at one clock
  // reading.
  void RecordReply(std::string_view node, const ReplyEvidence& evidence);

  // --- Fleet priors (DESIGN.md Section 12) ---

  // Installs a pushed fleet digest as this monitor's prior. Monotonic in
  // digest.version: a stale or already-installed version is ignored (and
  // false returned). Per covered node the digest seeds the latency /
  // reachability / queue-delay estimates (blended against local samples;
  // see Options::prior_strength) and advances the known high timestamp,
  // which is safe because high timestamps only grow. Never counts as
  // contact: probe suppression is driven by prior freshness alone.
  bool InstallDigest(const monitoring::ConditionDigest& digest);

  // Version of the installed digest (0 = never installed) and its age
  // (-1 = never installed).
  uint64_t digest_version() const;
  MicrosecondCount digest_age_us() const;

  // This monitor's condition report for the aggregator: one NodeCondition
  // per node with *local* evidence (prior-only knowledge is excluded so
  // pushed digests cannot echo back and self-reinforce). High-timestamp
  // entries may reflect installed priors - harmless, since aggregation
  // takes the max of a monotonic quantity.
  std::vector<monitoring::NodeCondition> BuildReportConditions() const;

  // Monotonic local-evidence version: bumps on every Record* call, never on
  // InstallDigest. Reporters stamp it on MonitorReports as the sequence
  // number, so the aggregator can reject duplicated or reordered reports
  // (an unchanged version means "nothing new since my last report").
  uint64_t state_version() const;

  // --- Probability estimates (Section 4.5) ---
  //
  // Each single-node query below takes the lock and reads the clock.
  // Selection instead reads every replica in one GatherSelectionInputs pass;
  // both go through the same formulas.

  double PNodeLat(std::string_view node, MicrosecondCount latency_us) const;

  // min_read_timestamp comes from Session::MinReadTimestamp. Strong reads are
  // decided by authoritativeness in the selection layer, not here.
  double PNodeCons(std::string_view node,
                   const Timestamp& min_read_timestamp) const;

  // Fraction of recent operations against the node that got any answer at
  // all; 1.0 for nodes with no recorded outcomes.
  double PNodeUp(std::string_view node) const;

  double PNodeSla(std::string_view node, const Timestamp& min_read_timestamp,
                  MicrosecondCount latency_us) const {
    return PNodeCons(node, min_read_timestamp) * PNodeLat(node, latency_us) *
           PNodeUp(node);
  }

  // True while the node is inside an overload backoff window.
  bool IsOverloaded(std::string_view node) const;

  // Utility multiplier the degradation ladder applies to a non-authoritative
  // subSLA with utility `utility` at this node: 1.0 when not overloaded.
  double POverload(std::string_view node, double utility) const;

  // Smoothed server-reported queue delay; 0 for unknown nodes.
  MicrosecondCount QueueDelayUs(std::string_view node) const;

  // --- Introspection / probing support ---

  // Last known (possibly predicted) high timestamp; Zero when never seen.
  Timestamp KnownHighTimestamp(std::string_view node) const;

  // Mean windowed RTT; 0 when no samples (treated as "unknown, assume near").
  MicrosecondCount MeanLatency(std::string_view node) const;

  // True when the node has not been contacted within probe_interval, or the
  // node's breaker is half-open (probation probe wanted). False while the
  // breaker is open: during the cooldown probing the node is pointless.
  bool NeedsProbe(std::string_view node) const;

  // Newest table configuration learned from reply piggybacks; epoch 0 until
  // the first configured reply arrives.
  struct ConfigView {
    uint64_t epoch = 0;
    std::string primary;
  };
  ConfigView CurrentConfig() const;

  // Circuit-breaker state for the node (kClosed for unknown nodes).
  BreakerState Breaker(std::string_view node) const;
  bool BreakerOpen(std::string_view node) const {
    return Breaker(node) == BreakerState::kOpen;
  }

  // --- Batched reads for selection (Figure 8) ---

  // What selection reads about one replica. Each field holds what the named
  // single-node query would answer.
  struct SelectionInputs {
    std::string_view node;  // Set by the caller.
    Timestamp known_high = Timestamp::Zero();      // KnownHighTimestamp
    MicrosecondCount queue_delay_us = 0;           // QueueDelayUs
    double p_up = 1.0;                             // PNodeUp
    bool overloaded = false;                       // IsOverloaded
    BreakerState breaker = BreakerState::kClosed;  // Breaker
    MicrosecondCount mean_latency_us = 0;          // MeanLatency
  };

  // One locked pass at one clock reading. Fills every inputs[i] for the
  // node the caller named in it, and for each latency bound r sets
  //   p_lat[i * latency_bounds.size() + r] =
  //       PNodeLat(node, max(0, latency_bounds[r] - queue_delay_us)),
  // the rank's latency budget left once the node's queue has taken its
  // share. `p_lat` holds inputs.size() * latency_bounds.size() entries.
  void GatherSelectionInputs(std::span<SelectionInputs> inputs,
                             std::span<const MicrosecondCount> latency_bounds,
                             std::span<double> p_lat) const;

  // PNodeCons and POverload over gathered inputs (no lock).
  static double PNodeConsFor(const Timestamp& known_high,
                             const Timestamp& min_read_timestamp) {
    return known_high >= min_read_timestamp ? 1.0 : 0.0;
  }
  double POverloadFor(bool overloaded, double utility) const;

  // Point-in-time view of everything the monitor knows about one node:
  // windowed latency quantiles, the last-known high timestamp, reachability,
  // and circuit-breaker state. Consumed by the CLI `stats` command and the
  // telemetry exporters.
  struct NodeSnapshot {
    std::string node;
    size_t latency_samples = 0;
    MicrosecondCount mean_latency_us = 0;
    MicrosecondCount p50_latency_us = 0;
    MicrosecondCount p95_latency_us = 0;
    MicrosecondCount p99_latency_us = 0;
    // As observed (never extrapolated, even with predict_high_timestamp).
    Timestamp high_timestamp = Timestamp::Zero();
    MicrosecondCount high_observed_at_us = -1;
    MicrosecondCount last_contact_us = -1;
    double p_up = 1.0;
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;
    // Overload-control view (DESIGN.md Section 11).
    bool overloaded = false;
    MicrosecondCount queue_delay_us = 0;
    // Monotonic count of local samples ever recorded for this node
    // (latency + reachability outcomes), unlike latency_samples which is
    // windowed. Lets digest consumers order snapshots of the same node.
    uint64_t total_samples = 0;
    // Fleet-prior view (DESIGN.md Section 12).
    bool has_prior = false;
    MicrosecondCount prior_age_us = -1;
  };

  // One NodeSnapshot per known node, sorted by node name.
  std::vector<NodeSnapshot> Snapshot() const;

  uint64_t breaker_trips() const {
    std::lock_guard<std::mutex> lock(mu_);
    return breaker_trips_;
  }

  uint64_t samples_recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_recorded_;
  }

  uint64_t overload_rejections() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overload_rejections_;
  }

  uint64_t digests_installed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return digests_installed_;
  }

  // Probe round trips skipped because a fresh prior covered the node.
  uint64_t probes_suppressed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return probes_suppressed_;
  }

  const Options& options() const { return options_; }

 private:
  struct NodeState {
    SlidingWindow latencies;
    // Reachability outcomes as 0/1 samples in the same sliding window shape.
    SlidingWindow outcomes;
    Timestamp high_timestamp = Timestamp::Zero();
    MicrosecondCount high_observed_at_us = -1;
    MicrosecondCount last_contact_us = -1;
    // Circuit breaker: consecutive transport failures and the cooldown end.
    // breaker_open_until_us semantics: 0 = closed; now < t = open;
    // now >= t = half-open (awaiting a probation success).
    int consecutive_failures = 0;
    MicrosecondCount breaker_open_until_us = 0;
    // Overload backoff window end (0 = not overloaded) and the smoothed
    // server-reported queue delay.
    MicrosecondCount overloaded_until_us = 0;
    double queue_delay_ewma_us = 0.0;
    bool has_queue_delay = false;
    // Monotonic count of local samples ever recorded (latency + outcomes).
    uint64_t total_samples = 0;
    // Fleet prior for this node (DESIGN.md Section 12): the last installed
    // digest's condition and when it arrived (-1 = none). Blending weight
    // decays with age; see Options::prior_strength / prior_ttl_us.
    bool has_prior = false;
    monitoring::NodeCondition prior;
    MicrosecondCount prior_installed_at_us = -1;

    explicit NodeState(const SlidingWindow::Options& window)
        : latencies(window), outcomes(window) {}
  };

  // The recording steps; the public Record* calls and RecordReply share
  // them. Each bumps state_version_ as its public call documents.
  void RecordLatencyLocked(NodeState& state, MicrosecondCount rtt_us,
                           MicrosecondCount now_us);
  void RecordHighTimestampLocked(NodeState& state, const Timestamp& high,
                                 MicrosecondCount now_us);
  void RecordConfigLocked(uint64_t epoch, std::string_view primary);
  void RecordSuccessLocked(NodeState& state, MicrosecondCount now_us);
  void RecordFailureLocked(NodeState& state, MicrosecondCount now_us);
  void RecordOverloadLocked(NodeState& state, MicrosecondCount retry_after_us,
                            MicrosecondCount now_us);
  void RecordQueueDelayLocked(NodeState& state, MicrosecondCount delay_us);

  // The estimates; the single-node queries and GatherSelectionInputs share
  // them. `state` is null for a node never heard of.
  BreakerState BreakerLocked(const NodeState* state,
                             MicrosecondCount now_us) const;
  double PNodeLatLocked(const NodeState* state, MicrosecondCount latency_us,
                        MicrosecondCount now_us) const;
  double PNodeUpLocked(const NodeState* state, MicrosecondCount now_us) const;
  MicrosecondCount QueueDelayLocked(const NodeState* state,
                                    MicrosecondCount now_us) const;
  Timestamp KnownHighTimestampLocked(const NodeState* state,
                                     MicrosecondCount now_us) const;
  static bool OverloadedLocked(const NodeState* state,
                               MicrosecondCount now_us);
  static MicrosecondCount MeanLatencyLocked(const NodeState* state,
                                            MicrosecondCount now_us);

  // Pseudo-sample count the node's prior is worth at `now_us`: zero when
  // absent or past prior_ttl_us, Options::prior_strength when brand new.
  double PriorWeightLocked(const NodeState& state,
                           MicrosecondCount now_us) const;
  // The prior's latency CDF evaluated at `latency_us`: piecewise-linear
  // through the digest's (p50, p95, p99) percentile points.
  static double PriorFractionBelow(const monitoring::NodeCondition& prior,
                                   MicrosecondCount latency_us);

  NodeState& StateFor(std::string_view node);
  const NodeState* FindState(std::string_view node) const;

  const Clock* clock_;  // Not owned.
  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, NodeState, std::less<>> nodes_;
  uint64_t samples_recorded_ = 0;
  uint64_t breaker_trips_ = 0;
  uint64_t overload_rejections_ = 0;
  // Local-evidence version (see state_version()).
  uint64_t state_version_ = 0;
  // Fleet-prior state (DESIGN.md Section 12).
  uint64_t digest_version_ = 0;
  MicrosecondCount digest_installed_at_us_ = -1;
  uint64_t digests_installed_ = 0;
  // Mutable: counted from the const NeedsProbe query path.
  mutable uint64_t probes_suppressed_ = 0;
  // Newest config epoch/primary seen on any reply (0/empty = never).
  uint64_t config_epoch_ = 0;
  std::string config_primary_;
};

// "closed" / "open" / "half-open", for stats output and logs.
std::string_view BreakerStateName(Monitor::BreakerState state);

}  // namespace pileus::core

#endif  // PILEUS_SRC_CORE_MONITOR_H_
