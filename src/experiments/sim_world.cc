// The simulator world: the Fig-10 GeoTestbed with two frontends (US and
// India) on the deterministic simulator, seeded faults from the testbed's
// fault injector, and the primary's per-node WAL under durable_root.

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cache/client_cache.h"
#include "src/core/client.h"
#include "src/experiments/geo_testbed.h"
#include "src/experiments/harness.h"
#include "src/monitoring/aggregator.h"
#include "src/storage/admission.h"

namespace pileus::experiments {
namespace {

// Fast pulls so staleness stays small relative to virtual run time.
constexpr MicrosecondCount kReplicationPeriodUs = SecondsToMicroseconds(10);
constexpr MicrosecondCount kAggregatorPeriodUs = SecondsToMicroseconds(5);

GeoTestbedOptions MakeGeoOptions(const AuditOptions& options) {
  GeoTestbedOptions geo;
  geo.seed = options.seed;
  geo.replication_period_us = kReplicationPeriodUs;
  geo.durable_root = options.durable_root;
  if (options.scenario == FaultScenario::kFailover) {
    // The promotion target must hold the complete committed prefix, so the
    // run needs at least one synchronous replica (Section 6.4) alongside the
    // lease coordinator.
    geo.sync_replica_count = 2;
    geo.enable_failover = true;
  }
  if (options.scenario == FaultScenario::kOverload) {
    // Run the real admission controller on every node alongside the injected
    // shedding episodes: queue delays get stamped on replies and fed to the
    // monitors, and genuine pressure sheds through the same kOverloaded path
    // the injector simulates. The rate sits above the workload's sustained
    // virtual-time op rate, so the bucket only queues during retry bursts.
    storage::AdmissionOptions admission;
    admission.tenant_ops_per_sec = 25;
    admission.tenant_burst_ops = 16;
    geo.admission = admission;
  }
  return geo;
}

class SimWorld {
 public:
  using Client = core::PileusClient;

  SimWorld(const AuditOptions& options, audit::HistoryRecorder* recorder)
      : options_(options),
        recorder_(recorder),
        testbed_(MakeGeoOptions(options)),
        us_cache_(CacheOptions()),
        india_cache_(CacheOptions()) {}

  Status Build() {
    PILEUS_RETURN_IF_ERROR(testbed_.durable_status());
    if (testbed_.options().enable_failover) {
      testbed_.StartReconfiguration();
    }
    // One cache per frontend, as in a real deployment: hand-off between
    // frontends then genuinely crosses cache domains and exercises the
    // session's hand-off floor.
    core::PileusClient::Options us_options;
    us_options.op_observer = recorder_;
    core::PileusClient::Options india_options = us_options;
    if (options_.client_cache) {
      us_options.cache = &us_cache_;
      india_options.cache = &india_cache_;
    }
    us_ = testbed_.MakeClient(kUs, us_options);
    india_ = testbed_.MakeClient(kIndia, india_options);
    return Status::Ok();
  }

  std::vector<Client*> frontends() {
    return {&us_->client(), &india_->client()};
  }

  void Start() {
    testbed_.StartReplication();
    us_->StartProbing();
    india_->StartProbing();
    if (options_.enable_aggregator) {
      // Shared monitoring (DESIGN.md Section 12): a periodic event plays the
      // control plane - each frontend reports its monitor's local
      // conditions, the aggregator merges them, and the fleet digest is
      // pushed back into both monitors as a selection prior.
      aggregator_.emplace(testbed_.env().clock());
      aggregator_pump_ = testbed_.env().SchedulePeriodic(
          kAggregatorPeriodUs, kAggregatorPeriodUs, [this] {
            for (GeoClient* fe : {us_.get(), india_.get()}) {
              core::Monitor& monitor = fe->client().monitor();
              aggregator_->Ingest(std::string(fe->site()),
                                  monitor.state_version(),
                                  monitor.BuildReportConditions());
            }
            const monitoring::ConditionDigest digest = aggregator_->Digest();
            for (GeoClient* fe : {us_.get(), india_.get()}) {
              fe->client().monitor().InstallDigest(digest);
            }
          });
    }
    // Warm-up: a couple of replication rounds plus probe traffic, so
    // monitors hold real estimates before the recorded window starts.
    testbed_.env().RunFor(2 * kReplicationPeriodUs + SecondsToMicroseconds(1));
  }

  void ScheduleFaults(Random& rng, FaultSchedule* schedule) {
    const uint64_t n = std::max<uint64_t>(options_.total_ops, 10);
    const std::array<const char*, 4> sites = {kUs, kEngland, kIndia, kChina};
    const auto pick_site = [&] { return sites[rng.NextUint64(sites.size())]; };
    // A window starts somewhere in the first two thirds of the run and always
    // ends before the run does, so the tail of every run is fault-free and
    // convergence gets re-exercised.
    const auto pick_window = [&](uint64_t* start, uint64_t* stop) {
      *start = n / 10 + rng.NextUint64(n / 2);
      *stop = std::min(n - 1, *start + n / 6 + rng.NextUint64(n / 6 + 1));
    };

    switch (options_.scenario) {
      case FaultScenario::kNone:
      case FaultScenario::kHandoff:
        break;  // Hand-off is driven inline by the op loop.

      case FaultScenario::kPartition:
        for (int i = 0; i < 2; ++i) {
          const char* a = pick_site();
          const char* b = pick_site();
          while (b == a) {
            b = pick_site();
          }
          uint64_t start = 0;
          uint64_t stop = 0;
          pick_window(&start, &stop);
          schedule->emplace(start, [this, a, b] {
            testbed_.faults().SetPartition(a, b, true);
            testbed_.faults().SetPartition(b, a, true);
          });
          schedule->emplace(stop, [this, a, b] {
            testbed_.faults().SetPartition(a, b, false);
            testbed_.faults().SetPartition(b, a, false);
          });
        }
        break;

      case FaultScenario::kDrops:
        for (int i = 0; i < 2; ++i) {
          const char* site = pick_site();
          const double probability = 0.1 + 0.3 * rng.NextDouble();
          uint64_t start = 0;
          uint64_t stop = 0;
          pick_window(&start, &stop);
          schedule->emplace(start, [this, site, probability] {
            testbed_.faults().SetSilentDrop(site, probability);
          });
          schedule->emplace(
              stop, [this, site] { testbed_.faults().RecoverNode(site); });
        }
        break;

      case FaultScenario::kGray:
        for (int i = 0; i < 3; ++i) {
          const char* site = pick_site();
          const double multiplier = 2.0 + 4.0 * rng.NextDouble();
          uint64_t start = 0;
          uint64_t stop = 0;
          pick_window(&start, &stop);
          schedule->emplace(start, [this, site, multiplier] {
            testbed_.faults().SetGrayNode(site, multiplier);
          });
          schedule->emplace(
              stop, [this, site] { testbed_.faults().RecoverNode(site); });
        }
        break;

      case FaultScenario::kCrashRestart: {
        // Crash a secondary (never the primary: the run should keep
        // committing writes for the checker to audit against).
        const char* victim = rng.NextBool(0.5) ? kUs : kIndia;
        schedule->emplace(n / 3, [this, victim] {
          testbed_.CrashNode(victim);
        });
        schedule->emplace(2 * n / 3, [this, victim] {
          (void)testbed_.RestartNode(victim);
        });
        break;
      }

      case FaultScenario::kFailover: {
        // Crash the PRIMARY mid-run. The lease coordinator must detect the
        // death, fence the old epoch, and promote the sync replica with the
        // highest durable timestamp without losing one acked write. The old
        // primary restarts later and must rejoin as a fenced secondary of the
        // new epoch (its stale-epoch Puts answered with kNotPrimary).
        const std::string victim = testbed_.primary_site();
        schedule->emplace(n / 3,
                         [this, victim] { testbed_.CrashNode(victim); });
        schedule->emplace(n / 2, [this, victim] {
          (void)testbed_.RestartNode(victim);
        });
        if (rng.NextBool(0.3)) {
          // Seeded double failover: kill whoever holds the role by then (the
          // first promotion must already have happened for this to differ).
          schedule->emplace(3 * n / 4, [this] {
            if (testbed_.failovers() > 0) {
              testbed_.CrashNode(testbed_.primary_site());
            }
          });
        }
        break;
      }

      case FaultScenario::kOverload: {
        // Overload episodes: nodes shed data-path requests with kOverloaded
        // plus a retry_after hint, as if another tenant had saturated their
        // admission buckets. One episode hits a random secondary, so reads
        // must degrade down the SLA ladder or re-route; one hits the primary,
        // so writes and strong reads spend retry budget on jittered backoff.
        // Real admission also runs on every node (see MakeGeoOptions), so
        // stamped queue delays feed the monitors throughout. Whatever rank a
        // degraded read ends up claiming, the checker audits it like any
        // other claim - a downgraded guarantee must still be a true one.
        const std::array<std::string, 2> victims = {
            rng.NextBool(0.5) ? kUs : kIndia, testbed_.primary_site()};
        for (const std::string& site : victims) {
          const double probability = 0.5 + 0.35 * rng.NextDouble();
          const uint32_t retry_after_ms =
              static_cast<uint32_t>(20 + rng.NextUint64(101));
          uint64_t start = 0;
          uint64_t stop = 0;
          pick_window(&start, &stop);
          schedule->emplace(start,
                           [this, site, probability, retry_after_ms] {
            testbed_.faults().SetOverloadNode(site, probability,
                                              retry_after_ms);
          });
          schedule->emplace(
              stop, [this, site] { testbed_.faults().RecoverNode(site); });
        }
        break;
      }
    }
    if (options_.enable_aggregator) {
      // The aggregator dies mid-run: digests stop arriving, installed priors
      // age past their TTL, and the monitors must carry selection on their
      // own probing for the rest of the run without a single violation.
      schedule->emplace(options_.total_ops / 2,
                        [this] { aggregator_pump_.Cancel(); });
    }
  }

  void Think() {
    testbed_.env().RunFor(workload::WorkloadOptions().think_time_us);
  }

  Status Finish(AuditResult* result) {
    us_->StopProbing();
    india_->StopProbing();
    testbed_.faults().ClearAll();
    // A failover may still be in flight when the ops run out (detection is
    // bound to virtual time, not op count); run the clock until the
    // promotion lands so the ground-truth export reads a live primary.
    if (testbed_.options().enable_failover) {
      for (int i = 0;
           i < 100 && testbed_.IsNodeCrashed(testbed_.primary_site()); ++i) {
        testbed_.env().RunFor(testbed_.options().failover_heartbeat_period_us);
      }
    }
    result->cache_served =
        us_->client().cache_serves() + india_->client().cache_serves();
    result->failovers = testbed_.failovers();
    return Status::Ok();
  }

  std::vector<proto::ObjectVersion> ExportGroundTruth(bool* contiguous) {
    return testbed_.primary_node()->ExportTableLog(kTableName, contiguous);
  }

  std::string PrimaryWalPath() const {
    return options_.durable_root.empty()
               ? ""
               : options_.durable_root + "/" + testbed_.primary_site() +
                     ".wal";
  }

 private:
  cache::ClientCache::Options CacheOptions() const {
    cache::ClientCache::Options cache_options;
    cache_options.capacity_bytes = options_.cache_capacity_bytes;
    return cache_options;
  }

  const AuditOptions& options_;
  audit::HistoryRecorder* recorder_;  // Not owned.
  GeoTestbed testbed_;
  cache::ClientCache us_cache_;
  cache::ClientCache india_cache_;
  std::unique_ptr<GeoClient> us_;
  std::unique_ptr<GeoClient> india_;
  std::optional<monitoring::MonitorAggregator> aggregator_;
  sim::PeriodicHandle aggregator_pump_;
};

}  // namespace

AuditResult RunSimAudit(const AuditOptions& options) {
  return RunInWorld<SimWorld>(options);
}

}  // namespace pileus::experiments
