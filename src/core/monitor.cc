#include "src/core/monitor.h"

#include <algorithm>
#include <cassert>

namespace pileus::core {

Monitor::NodeState& Monitor::StateFor(std::string_view node) {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    it = nodes_.emplace(std::string(node),
                        NodeState(options_.latency_window))
             .first;
  }
  return it->second;
}

const Monitor::NodeState* Monitor::FindState(std::string_view node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second;
}

void Monitor::RecordLatencyLocked(NodeState& state, MicrosecondCount rtt_us,
                                  MicrosecondCount now_us) {
  state.latencies.Record(now_us, rtt_us);
  state.last_contact_us = now_us;
  ++state.total_samples;
  ++samples_recorded_;
  ++state_version_;
}

void Monitor::RecordLatency(std::string_view node, MicrosecondCount rtt_us) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordLatencyLocked(StateFor(node), rtt_us, clock_->NowMicros());
}

void Monitor::RecordHighTimestampLocked(NodeState& state,
                                        const Timestamp& high,
                                        MicrosecondCount now_us) {
  // High timestamps only move forward; keep the max ever observed.
  if (high > state.high_timestamp) {
    state.high_timestamp = high;
    state.high_observed_at_us = now_us;
  }
  state.last_contact_us = now_us;
  ++state_version_;
}

void Monitor::RecordHighTimestamp(std::string_view node,
                                  const Timestamp& high) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordHighTimestampLocked(StateFor(node), high, clock_->NowMicros());
}

void Monitor::RecordConfigLocked(uint64_t epoch, std::string_view primary) {
  if (epoch == 0 || epoch <= config_epoch_) {
    return;  // Unconfigured, stale or already-known epoch.
  }
  config_epoch_ = epoch;
  config_primary_ = std::string(primary);
}

void Monitor::RecordConfig(uint64_t epoch, std::string_view primary) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordConfigLocked(epoch, primary);
}

Monitor::ConfigView Monitor::CurrentConfig() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ConfigView{config_epoch_, config_primary_};
}

void Monitor::RecordSuccessLocked(NodeState& state, MicrosecondCount now_us) {
  state.outcomes.Record(now_us, 1);
  // Any answer closes the breaker: a half-open probation probe succeeded, or
  // the node recovered on its own before the cooldown ended.
  state.consecutive_failures = 0;
  state.breaker_open_until_us = 0;
  ++state.total_samples;
  ++state_version_;
}

void Monitor::RecordSuccess(std::string_view node) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordSuccessLocked(StateFor(node), clock_->NowMicros());
}

void Monitor::RecordFailureLocked(NodeState& state, MicrosecondCount now_us) {
  state.outcomes.Record(now_us, 0);
  // A failure is still contact for probing purposes: the prober keeps
  // checking for recovery at its normal cadence, not in a tight loop.
  state.last_contact_us = now_us;
  ++state.total_samples;
  ++state_version_;
  if (options_.breaker_failure_threshold > 0) {
    ++state.consecutive_failures;
    const bool was_open = state.breaker_open_until_us != 0;
    // Trip on reaching the threshold, and re-arm the full cooldown when a
    // half-open probation probe fails again.
    if (state.consecutive_failures >= options_.breaker_failure_threshold) {
      if (!was_open) {
        ++breaker_trips_;
      }
      state.breaker_open_until_us = now_us + options_.breaker_cooldown_us;
    }
  }
}

void Monitor::RecordFailure(std::string_view node) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordFailureLocked(StateFor(node), clock_->NowMicros());
}

void Monitor::RecordOverloadLocked(NodeState& state,
                                   MicrosecondCount retry_after_us,
                                   MicrosecondCount now_us) {
  const MicrosecondCount backoff = retry_after_us > 0
                                       ? retry_after_us
                                       : options_.default_overload_backoff_us;
  state.overloaded_until_us =
      std::max(state.overloaded_until_us, now_us + backoff);
  // The node answered (with a rejection), so this is contact — the prober
  // need not also hammer it — but deliberately not a breaker-closing
  // success: a half-open breaker should wait for a served reply.
  state.last_contact_us = now_us;
  ++overload_rejections_;
  ++state_version_;
}

void Monitor::RecordOverload(std::string_view node,
                             MicrosecondCount retry_after_us) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordOverloadLocked(StateFor(node), retry_after_us, clock_->NowMicros());
}

void Monitor::RecordQueueDelayLocked(NodeState& state,
                                     MicrosecondCount delay_us) {
  const double alpha = options_.queue_delay_alpha;
  state.queue_delay_ewma_us =
      alpha * static_cast<double>(delay_us) +
      (1.0 - alpha) * state.queue_delay_ewma_us;
  state.has_queue_delay = true;
  ++state_version_;
}

void Monitor::RecordQueueDelay(std::string_view node,
                               MicrosecondCount delay_us) {
  std::lock_guard<std::mutex> lock(mu_);
  RecordQueueDelayLocked(StateFor(node), delay_us);
}

void Monitor::RecordReply(std::string_view node,
                          const ReplyEvidence& evidence) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeState& state = StateFor(node);
  const MicrosecondCount now = clock_->NowMicros();
  if (evidence.rtt_us >= 0) {
    RecordLatencyLocked(state, evidence.rtt_us, now);
  }
  RecordConfigLocked(evidence.config_epoch, evidence.config_primary);
  switch (evidence.outcome) {
    case ReplyEvidence::Outcome::kFailure:
      RecordFailureLocked(state, now);
      break;
    case ReplyEvidence::Outcome::kSuccess:
      RecordSuccessLocked(state, now);
      break;
    case ReplyEvidence::Outcome::kOverload:
      RecordOverloadLocked(state, evidence.retry_after_us, now);
      break;
  }
  if (evidence.has_progress) {
    RecordHighTimestampLocked(state, evidence.high_timestamp, now);
    RecordQueueDelayLocked(state, evidence.queue_delay_us);
  }
}

bool Monitor::OverloadedLocked(const NodeState* state,
                               MicrosecondCount now_us) {
  return state != nullptr && now_us < state->overloaded_until_us;
}

bool Monitor::IsOverloaded(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return OverloadedLocked(FindState(node), clock_->NowMicros());
}

double Monitor::POverloadFor(bool overloaded, double utility) const {
  if (!overloaded) {
    return 1.0;
  }
  const double u = std::clamp(utility, 0.0, 1.0);
  return options_.overload_penalty + (1.0 - options_.overload_penalty) * u;
}

double Monitor::POverload(std::string_view node, double utility) const {
  return POverloadFor(IsOverloaded(node), utility);
}

MicrosecondCount Monitor::QueueDelayLocked(const NodeState* state,
                                           MicrosecondCount now_us) const {
  if (state == nullptr) {
    return 0;
  }
  if (state->has_queue_delay) {
    return static_cast<MicrosecondCount>(state->queue_delay_ewma_us);
  }
  // No local evidence: use the fleet prior's queue delay, scaled down as the
  // prior ages so a dead aggregator's last digest fades to "no pressure".
  const double k = PriorWeightLocked(*state, now_us);
  if (k <= 0.0) {
    return 0;
  }
  const double confidence = k / options_.prior_strength;  // In (0, 1].
  return static_cast<MicrosecondCount>(
      confidence * static_cast<double>(state->prior.queue_delay_us));
}

MicrosecondCount Monitor::QueueDelayUs(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return QueueDelayLocked(FindState(node), clock_->NowMicros());
}

Monitor::BreakerState Monitor::BreakerLocked(const NodeState* state,
                                             MicrosecondCount now_us) const {
  if (state == nullptr || state->breaker_open_until_us == 0) {
    return BreakerState::kClosed;
  }
  return now_us < state->breaker_open_until_us ? BreakerState::kOpen
                                               : BreakerState::kHalfOpen;
}

Monitor::BreakerState Monitor::Breaker(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return BreakerLocked(FindState(node), clock_->NowMicros());
}

double Monitor::PriorWeightLocked(const NodeState& state,
                                  MicrosecondCount now_us) const {
  if (!state.has_prior || state.prior_installed_at_us < 0 ||
      options_.prior_ttl_us <= 0) {
    return 0.0;
  }
  const MicrosecondCount age = now_us - state.prior_installed_at_us;
  if (age >= options_.prior_ttl_us) {
    return 0.0;
  }
  const double fresh =
      1.0 - static_cast<double>(age) / static_cast<double>(options_.prior_ttl_us);
  return options_.prior_strength * fresh;
}

double Monitor::PriorFractionBelow(const monitoring::NodeCondition& prior,
                                   MicrosecondCount latency_us) {
  // Piecewise-linear CDF through (0, 0), (p50, .5), (p95, .95), (p99, .99).
  // Equal or out-of-order percentiles (tiny fleets, constant latency)
  // degenerate to steps rather than dividing by zero.
  const double l = static_cast<double>(latency_us);
  const double p50 = static_cast<double>(prior.p50_latency_us);
  const double p95 = static_cast<double>(prior.p95_latency_us);
  const double p99 = static_cast<double>(prior.p99_latency_us);
  if (l <= 0.0) {
    return 0.0;
  }
  if (l < p50) {
    return 0.5 * l / p50;
  }
  if (l < p95) {
    return p95 > p50 ? 0.5 + 0.45 * (l - p50) / (p95 - p50) : 0.5;
  }
  if (l < p99) {
    return p99 > p95 ? 0.95 + 0.04 * (l - p95) / (p99 - p95) : 0.95;
  }
  // Past p99: approach 1.0 over another p99 of headroom.
  return std::min(1.0, 0.99 + 0.01 * (l - p99) / std::max(1.0, p99));
}

double Monitor::PNodeUpLocked(const NodeState* state,
                              MicrosecondCount now_us) const {
  if (state == nullptr) {
    return 1.0;
  }
  // An open breaker overrides the windowed estimate: the node is known-bad
  // until the cooldown expires, however good its older samples look.
  if (BreakerLocked(state, now_us) == BreakerState::kOpen) {
    return 0.0;
  }
  // Samples are 0 (failure) or 1 (success): the fraction strictly below 1 is
  // the failure rate. An empty window means no evidence: assume up.
  const double m = static_cast<double>(state->outcomes.SampleCount(now_us));
  const double p_local =
      1.0 - state->outcomes.FractionBelow(now_us, 1, /*empty_estimate=*/0.0);
  const double k = PriorWeightLocked(*state, now_us);
  if (k <= 0.0) {
    return m > 0.0 ? p_local : 1.0;
  }
  const double p_prior = state->prior.p_up;
  if (m <= 0.0) {
    // Only the prior speaks; as it ages, drift back to the optimistic 1.0
    // default so a stale "node down" verdict cannot shadow it forever.
    const double confidence = k / options_.prior_strength;
    return confidence * p_prior + (1.0 - confidence) * 1.0;
  }
  return (m * p_local + k * p_prior) / (m + k);
}

double Monitor::PNodeUp(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PNodeUpLocked(FindState(node), clock_->NowMicros());
}

double Monitor::PNodeLatLocked(const NodeState* state,
                               MicrosecondCount latency_us,
                               MicrosecondCount now_us) const {
  if (state == nullptr) {
    return options_.unknown_latency_estimate;
  }
  const double n = static_cast<double>(state->latencies.SampleCount(now_us));
  // A prior with sample_count == 0 carries no latency evidence (a node seen
  // by the fleet only via server self-reports): blend nothing from it.
  double k = PriorWeightLocked(*state, now_us);
  if (state->prior.sample_count == 0) {
    k = 0.0;
  }
  if (k <= 0.0) {
    return state->latencies.FractionBelow(now_us, latency_us,
                                          options_.unknown_latency_estimate);
  }
  const double f_prior = PriorFractionBelow(state->prior, latency_us);
  if (n <= 0.0) {
    return f_prior;
  }
  const double f_local = state->latencies.FractionBelow(
      now_us, latency_us, options_.unknown_latency_estimate);
  return (n * f_local + k * f_prior) / (n + k);
}

double Monitor::PNodeLat(std::string_view node,
                         MicrosecondCount latency_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  return PNodeLatLocked(FindState(node), latency_us, clock_->NowMicros());
}

void Monitor::GatherSelectionInputs(
    std::span<SelectionInputs> inputs,
    std::span<const MicrosecondCount> latency_bounds,
    std::span<double> p_lat) const {
  const size_t ranks = latency_bounds.size();
  assert(p_lat.size() == inputs.size() * ranks);
  std::lock_guard<std::mutex> lock(mu_);
  const MicrosecondCount now = clock_->NowMicros();
  for (size_t i = 0; i < inputs.size(); ++i) {
    SelectionInputs& in = inputs[i];
    const NodeState* state = FindState(in.node);
    in.known_high = KnownHighTimestampLocked(state, now);
    in.queue_delay_us = QueueDelayLocked(state, now);
    in.p_up = PNodeUpLocked(state, now);
    in.overloaded = OverloadedLocked(state, now);
    in.breaker = BreakerLocked(state, now);
    in.mean_latency_us = MeanLatencyLocked(state, now);
    for (size_t r = 0; r < ranks; ++r) {
      const MicrosecondCount budget = std::max<MicrosecondCount>(
          0, latency_bounds[r] - in.queue_delay_us);
      p_lat[i * ranks + r] = PNodeLatLocked(state, budget, now);
    }
  }
}

bool Monitor::InstallDigest(const monitoring::ConditionDigest& digest) {
  std::lock_guard<std::mutex> lock(mu_);
  if (digest.version <= digest_version_) {
    return false;  // Stale or duplicate push.
  }
  const MicrosecondCount now = clock_->NowMicros();
  digest_version_ = digest.version;
  digest_installed_at_us_ = now;
  ++digests_installed_;
  for (const monitoring::NodeCondition& cond : digest.nodes) {
    NodeState& state = StateFor(cond.node);
    state.has_prior = true;
    state.prior = cond;
    state.prior_installed_at_us = now;
    // High timestamps are monotonic, so adopting the fleet's larger value is
    // always safe and lets a cold client rank consistency without a probe.
    if (cond.high_age_us >= 0 && cond.high_timestamp > state.high_timestamp) {
      state.high_timestamp = cond.high_timestamp;
      state.high_observed_at_us = std::max<MicrosecondCount>(
          0, now - cond.high_age_us);
    }
    // Deliberately not touching last_contact_us: a prior is fleet hearsay,
    // not contact. Probe suppression keys off prior freshness instead.
  }
  return true;
}

uint64_t Monitor::digest_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return digest_version_;
}

MicrosecondCount Monitor::digest_age_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (digest_installed_at_us_ < 0) {
    return -1;
  }
  return clock_->NowMicros() - digest_installed_at_us_;
}

uint64_t Monitor::state_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_version_;
}

std::vector<monitoring::NodeCondition> Monitor::BuildReportConditions() const {
  std::lock_guard<std::mutex> lock(mu_);
  const MicrosecondCount now = clock_->NowMicros();
  std::vector<monitoring::NodeCondition> out;
  out.reserve(nodes_.size());
  for (const auto& [name, state] : nodes_) {
    // Only nodes with local evidence: re-reporting prior-only knowledge
    // would echo the aggregator's own digest back and self-reinforce.
    if (state.total_samples == 0) {
      continue;
    }
    monitoring::NodeCondition cond;
    cond.node = name;
    cond.sample_count = static_cast<uint64_t>(state.latencies.SampleCount(now));
    cond.mean_latency_us = state.latencies.Mean(now);
    cond.p50_latency_us = state.latencies.Quantile(now, 0.50);
    cond.p95_latency_us = state.latencies.Quantile(now, 0.95);
    cond.p99_latency_us = state.latencies.Quantile(now, 0.99);
    cond.high_timestamp = state.high_timestamp;
    cond.high_age_us = state.high_observed_at_us >= 0
                           ? now - state.high_observed_at_us
                           : -1;
    cond.p_up = BreakerLocked(&state, now) == BreakerState::kOpen
                    ? 0.0
                    : 1.0 - state.outcomes.FractionBelow(
                                now, 1, /*empty_estimate=*/0.0);
    cond.queue_delay_us =
        state.has_queue_delay
            ? static_cast<MicrosecondCount>(state.queue_delay_ewma_us)
            : 0;
    cond.overloaded = now < state.overloaded_until_us;
    out.push_back(std::move(cond));
  }
  return out;
}

double Monitor::PNodeCons(std::string_view node,
                          const Timestamp& min_read_timestamp) const {
  return PNodeConsFor(KnownHighTimestamp(node), min_read_timestamp);
}

Timestamp Monitor::KnownHighTimestampLocked(const NodeState* state,
                                            MicrosecondCount now_us) const {
  if (state == nullptr) {
    return Timestamp::Zero();
  }
  Timestamp high = state->high_timestamp;
  if (options_.predict_high_timestamp && state->high_observed_at_us >= 0) {
    // Extrapolate: the node's high timestamp has (probably) kept advancing
    // since we last heard from it. Scaled by prediction_rate so deployments
    // can be more or less aggressive; 1.0 assumes the node keeps perfect pace
    // with wall time (true for an idle primary's heartbeats).
    const MicrosecondCount elapsed = now_us - state->high_observed_at_us;
    high.physical_us +=
        static_cast<MicrosecondCount>(options_.prediction_rate *
                                      static_cast<double>(elapsed));
  }
  return high;
}

Timestamp Monitor::KnownHighTimestamp(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return KnownHighTimestampLocked(FindState(node), clock_->NowMicros());
}

MicrosecondCount Monitor::MeanLatencyLocked(const NodeState* state,
                                            MicrosecondCount now_us) {
  return state == nullptr ? 0 : state->latencies.Mean(now_us);
}

MicrosecondCount Monitor::MeanLatency(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return MeanLatencyLocked(FindState(node), clock_->NowMicros());
}

std::vector<Monitor::NodeSnapshot> Monitor::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const MicrosecondCount now = clock_->NowMicros();
  std::vector<NodeSnapshot> out;
  out.reserve(nodes_.size());
  // nodes_ is an ordered map, so the result is sorted by name already.
  for (const auto& [name, state] : nodes_) {
    NodeSnapshot snap;
    snap.node = name;
    snap.latency_samples = state.latencies.SampleCount(now);
    snap.mean_latency_us = state.latencies.Mean(now);
    snap.p50_latency_us = state.latencies.Quantile(now, 0.50);
    snap.p95_latency_us = state.latencies.Quantile(now, 0.95);
    snap.p99_latency_us = state.latencies.Quantile(now, 0.99);
    snap.high_timestamp = state.high_timestamp;
    snap.high_observed_at_us = state.high_observed_at_us;
    snap.last_contact_us = state.last_contact_us;
    snap.breaker = BreakerLocked(&state, now);
    snap.p_up = snap.breaker == BreakerState::kOpen
                    ? 0.0
                    : 1.0 - state.outcomes.FractionBelow(
                                now, 1, /*empty_estimate=*/0.0);
    snap.consecutive_failures = state.consecutive_failures;
    snap.overloaded = now < state.overloaded_until_us;
    snap.queue_delay_us =
        static_cast<MicrosecondCount>(state.queue_delay_ewma_us);
    snap.total_samples = state.total_samples;
    snap.has_prior = state.has_prior;
    snap.prior_age_us = state.prior_installed_at_us >= 0
                            ? now - state.prior_installed_at_us
                            : -1;
    out.push_back(std::move(snap));
  }
  return out;
}

bool Monitor::NeedsProbe(std::string_view node) const {
  std::lock_guard<std::mutex> lock(mu_);
  const NodeState* state = FindState(node);
  if (state == nullptr) {
    return true;
  }
  const MicrosecondCount now = clock_->NowMicros();
  switch (BreakerLocked(state, now)) {
    case BreakerState::kOpen:
      return false;  // Pointless during the cooldown.
    case BreakerState::kHalfOpen:
      return true;  // Probation probe decides recovery.
    case BreakerState::kClosed:
      break;
  }
  // Fresh fleet prior: the fleet already measured this node, skip the round
  // trip. Once the prior outgrows the suppression window, probing resumes
  // even if digests keep arriving with unchanged content.
  if (state->has_prior && state->prior_installed_at_us >= 0 &&
      now - state->prior_installed_at_us < options_.prior_probe_suppress_us) {
    const bool due = state->last_contact_us < 0 ||
                     now - state->last_contact_us >= options_.probe_interval_us;
    if (due) {
      ++probes_suppressed_;  // Count only probes that would have fired.
    }
    return false;
  }
  return now - state->last_contact_us >= options_.probe_interval_us;
}

std::string_view BreakerStateName(Monitor::BreakerState state) {
  switch (state) {
    case Monitor::BreakerState::kClosed:
      return "closed";
    case Monitor::BreakerState::kOpen:
      return "open";
    case Monitor::BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

}  // namespace pileus::core
