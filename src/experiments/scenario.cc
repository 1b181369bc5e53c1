#include "src/experiments/scenario.h"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/cache/client_cache.h"
#include "src/common/random.h"
#include "src/core/client.h"
#include "src/experiments/geo_testbed.h"
#include "src/monitoring/aggregator.h"
#include "src/persist/wal.h"
#include "src/storage/admission.h"
#include "src/workload/ycsb.h"

namespace pileus::experiments {

std::string_view FaultScenarioName(FaultScenario scenario) {
  switch (scenario) {
    case FaultScenario::kNone:
      return "none";
    case FaultScenario::kPartition:
      return "partition";
    case FaultScenario::kDrops:
      return "drops";
    case FaultScenario::kGray:
      return "gray";
    case FaultScenario::kCrashRestart:
      return "crash-restart";
    case FaultScenario::kHandoff:
      return "handoff";
    case FaultScenario::kFailover:
      return "failover";
    case FaultScenario::kOverload:
      return "overload";
  }
  return "unknown";
}

std::optional<FaultScenario> ParseFaultScenario(std::string_view name) {
  for (FaultScenario scenario : AllFaultScenarios()) {
    if (name == FaultScenarioName(scenario)) {
      return scenario;
    }
  }
  return std::nullopt;
}

std::vector<FaultScenario> AllFaultScenarios() {
  return {FaultScenario::kNone,         FaultScenario::kPartition,
          FaultScenario::kDrops,        FaultScenario::kGray,
          FaultScenario::kCrashRestart, FaultScenario::kHandoff,
          FaultScenario::kFailover,     FaultScenario::kOverload};
}

core::Sla AuditSla() {
  return core::Sla()
      .Add(core::Guarantee::Strong(), MillisecondsToMicroseconds(180), 1.0)
      .Add(core::Guarantee::Causal(), MillisecondsToMicroseconds(250), 0.8)
      .Add(core::Guarantee::ReadMyWrites(), MillisecondsToMicroseconds(300),
           0.6)
      .Add(core::Guarantee::BoundedSeconds(10),
           MillisecondsToMicroseconds(400), 0.4)
      .Add(core::Guarantee::Monotonic(), MillisecondsToMicroseconds(500), 0.2)
      .Add(core::Guarantee::Eventual(), SecondsToMicroseconds(2), 0.1);
}

std::string ScenarioResult::Summary() const {
  std::ostringstream os;
  os << (ok() ? "PASS" : "FAIL") << " scenario="
     << FaultScenarioName(scenario) << " seed=" << seed << ": "
     << ops_attempted << " ops (" << ops_failed << " failed), " << sessions
     << " sessions";
  if (handoffs > 0) {
    os << ", " << handoffs << " handoffs";
  }
  if (cache_served > 0) {
    os << ", " << cache_served << " cache-served";
  }
  if (failovers > 0) {
    os << ", " << failovers << " failovers";
  }
  os << "; " << report.reads_checked << " reads, " << report.writes_checked
     << " writes, " << report.ranges_checked << " ranges, "
     << report.claims_checked << " claims checked";
  if (!ok()) {
    os << "; " << report.violations.size() << " violation"
       << (report.violations.size() == 1 ? "" : "s")
       << " (reproduce with --seed " << seed << " --scenarios "
       << FaultScenarioName(scenario) << ")";
  }
  return os.str();
}

namespace {

// Fault events keyed by the op index they fire before.
using FaultSchedule = std::multimap<uint64_t, std::function<void()>>;

FaultSchedule BuildFaultSchedule(const ScenarioOptions& options,
                                 GeoTestbed& testbed, Random& rng) {
  FaultSchedule schedule;
  const uint64_t n = std::max<uint64_t>(options.total_ops, 10);
  const std::array<const char*, 4> sites = {kUs, kEngland, kIndia, kChina};
  const auto pick_site = [&] { return sites[rng.NextUint64(sites.size())]; };
  // A window starts somewhere in the first two thirds of the run and always
  // ends before the run does, so the tail of every run is fault-free and
  // convergence gets re-exercised.
  const auto pick_window = [&](uint64_t* start, uint64_t* stop) {
    *start = n / 10 + rng.NextUint64(n / 2);
    *stop = std::min(n - 1, *start + n / 6 + rng.NextUint64(n / 6 + 1));
  };

  switch (options.scenario) {
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
        schedule.emplace(start, [&testbed, a, b] {
          testbed.faults().SetPartition(a, b, true);
          testbed.faults().SetPartition(b, a, true);
        });
        schedule.emplace(stop, [&testbed, a, b] {
          testbed.faults().SetPartition(a, b, false);
          testbed.faults().SetPartition(b, a, false);
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
        schedule.emplace(start, [&testbed, site, probability] {
          testbed.faults().SetSilentDrop(site, probability);
        });
        schedule.emplace(
            stop, [&testbed, site] { testbed.faults().RecoverNode(site); });
      }
      break;

    case FaultScenario::kGray:
      for (int i = 0; i < 3; ++i) {
        const char* site = pick_site();
        const double multiplier = 2.0 + 4.0 * rng.NextDouble();
        uint64_t start = 0;
        uint64_t stop = 0;
        pick_window(&start, &stop);
        schedule.emplace(start, [&testbed, site, multiplier] {
          testbed.faults().SetGrayNode(site, multiplier);
        });
        schedule.emplace(
            stop, [&testbed, site] { testbed.faults().RecoverNode(site); });
      }
      break;

    case FaultScenario::kCrashRestart: {
      // Crash a secondary (never the primary: the run should keep
      // committing writes for the checker to audit against).
      const char* victim = rng.NextBool(0.5) ? kUs : kIndia;
      schedule.emplace(n / 3, [&testbed, victim] {
        testbed.CrashNode(victim);
      });
      schedule.emplace(2 * n / 3, [&testbed, victim] {
        (void)testbed.RestartNode(victim);
      });
      break;
    }

    case FaultScenario::kFailover: {
      // Crash the PRIMARY mid-run. The lease coordinator must detect the
      // death, fence the old epoch, and promote the sync replica with the
      // highest durable timestamp without losing one acked write. The old
      // primary restarts later and must rejoin as a fenced secondary of the
      // new epoch (its stale-epoch Puts answered with kNotPrimary).
      const std::string victim = testbed.primary_site();
      schedule.emplace(n / 3,
                       [&testbed, victim] { testbed.CrashNode(victim); });
      schedule.emplace(n / 2, [&testbed, victim] {
        (void)testbed.RestartNode(victim);
      });
      if (rng.NextBool(0.3)) {
        // Seeded double failover: kill whoever holds the role by then (the
        // first promotion must already have happened for this to differ).
        schedule.emplace(3 * n / 4, [&testbed] {
          if (testbed.failovers() > 0) {
            testbed.CrashNode(testbed.primary_site());
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
      // Real admission also runs on every node (see RunAuditScenario), so
      // stamped queue delays feed the monitors throughout. Whatever rank a
      // degraded read ends up claiming, the checker audits it like any
      // other claim - a downgraded guarantee must still be a true one.
      const std::array<std::string, 2> victims = {
          rng.NextBool(0.5) ? kUs : kIndia, testbed.primary_site()};
      for (const std::string& site : victims) {
        const double probability = 0.5 + 0.35 * rng.NextDouble();
        const uint32_t retry_after_ms =
            static_cast<uint32_t>(20 + rng.NextUint64(101));
        uint64_t start = 0;
        uint64_t stop = 0;
        pick_window(&start, &stop);
        schedule.emplace(start,
                         [&testbed, site, probability, retry_after_ms] {
          testbed.faults().SetOverloadNode(site, probability, retry_after_ms);
        });
        schedule.emplace(
            stop, [&testbed, site] { testbed.faults().RecoverNode(site); });
      }
      break;
    }
  }
  return schedule;
}

// Appends a lost-write violation for every primary-WAL entry that is absent
// from the exported update log. Preloaded keys bypass the WAL, so the
// subset relation (WAL within log), not equality, is the invariant.
void CrossCheckPrimaryWal(const ScenarioOptions& options,
                          const GeoTestbed& testbed, const audit::History& history,
                          audit::AuditReport* report) {
  const std::string path =
      options.durable_root + "/" + testbed.primary_site() + ".wal";
  Result<std::vector<proto::ObjectVersion>> wal =
      persist::WriteAheadLog::ReadVersions(path);
  if (!wal.ok()) {
    report->violations.push_back(audit::Violation{
        audit::ViolationType::kLostWrite, 0, audit::kNoRelatedOp,
        "primary WAL at '" + path + "' unreadable: " +
            wal.status().ToString()});
    return;
  }
  std::set<std::tuple<std::string, int64_t, uint32_t, bool>> committed;
  for (const proto::ObjectVersion& v : history.ground_truth) {
    committed.emplace(v.key, v.timestamp.physical_us, v.timestamp.sequence,
                      v.is_tombstone);
  }
  for (const proto::ObjectVersion& v : wal.value()) {
    if (committed.count({v.key, v.timestamp.physical_us, v.timestamp.sequence,
                         v.is_tombstone}) == 0) {
      report->violations.push_back(audit::Violation{
          audit::ViolationType::kLostWrite, 0, audit::kNoRelatedOp,
          "primary WAL holds '" + v.key + "' at " + v.timestamp.ToString() +
              " which the update-log export lacks"});
    }
  }
}

}  // namespace

ScenarioResult RunAuditScenario(const ScenarioOptions& options) {
  ScenarioResult result;
  result.seed = options.seed;
  result.scenario = options.scenario;

  GeoTestbedOptions geo;
  geo.seed = options.seed;
  geo.replication_period_us = options.replication_period_us;
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
  GeoTestbed testbed(geo);
  if (geo.enable_failover) {
    testbed.StartReconfiguration();
  }

  audit::HistoryRecorder recorder;
  core::PileusClient::Options client_options;
  client_options.op_observer = &recorder;
  // One cache per frontend, as in a real deployment: hand-off between
  // frontends then genuinely crosses cache domains and exercises the
  // session's hand-off floor.
  cache::ClientCache::Options cache_options;
  cache_options.capacity_bytes = options.cache_capacity_bytes;
  cache::ClientCache us_cache(cache_options);
  cache::ClientCache india_cache(cache_options);
  core::PileusClient::Options us_options = client_options;
  core::PileusClient::Options india_options = client_options;
  if (options.client_cache) {
    us_options.cache = &us_cache;
    india_options.cache = &india_cache;
  }
  std::unique_ptr<GeoClient> us = testbed.MakeClient(kUs, us_options);
  std::unique_ptr<GeoClient> india =
      testbed.MakeClient(kIndia, india_options);
  const std::array<GeoClient*, 2> frontends = {us.get(), india.get()};

  // Preload through a client rather than PreloadKeys: that writes straight
  // into the tablets, bypassing the primary's WAL, and un-journaled state
  // is silently lost across CrashNode/RestartNode - a restarted secondary
  // would advertise a fresh heartbeat while permanently missing the
  // preloaded keys, which the checker rightly flags as a prefix violation.
  const core::Sla sla = options.sla.value_or(AuditSla());
  {
    Result<core::Session> preload = us->client().BeginSession(sla);
    if (preload.ok()) {
      const std::string value(100, 'p');
      for (int i = 0; i < options.key_count; ++i) {
        (void)us->client().Put(*preload, workload::YcsbWorkload::KeyForIndex(i),
                               value);
      }
    }
  }
  testbed.StartReplication();
  us->StartProbing();
  india->StartProbing();

  // Shared-monitoring aggregator (DESIGN.md Section 12): a periodic event
  // plays the control plane — each frontend reports its monitor's local
  // conditions, the aggregator merges them, and the fleet digest is pushed
  // back into both monitors as a selection prior. Killed halfway through the
  // op loop below, so the audit also covers the fall-back phase where priors
  // age out and clients converge back to self-probed estimates.
  std::optional<monitoring::MonitorAggregator> aggregator;
  sim::PeriodicHandle aggregator_pump;
  if (options.enable_aggregator) {
    aggregator.emplace(testbed.env().clock());
    aggregator_pump = testbed.env().SchedulePeriodic(
        options.aggregator_period_us, options.aggregator_period_us,
        [&aggregator, &frontends] {
          for (GeoClient* fe : frontends) {
            core::Monitor& monitor = fe->client().monitor();
            aggregator->Ingest(std::string(fe->site()),
                               monitor.state_version(),
                               monitor.BuildReportConditions());
          }
          const monitoring::ConditionDigest digest = aggregator->Digest();
          for (GeoClient* fe : frontends) {
            fe->client().monitor().InstallDigest(digest);
          }
        });
  }

  // Warm-up: a couple of replication rounds plus probe traffic, so monitors
  // hold real estimates before the recorded window starts.
  testbed.env().RunFor(2 * options.replication_period_us +
                       SecondsToMicroseconds(1));

  // Everything random below derives from the one seed: workload stream,
  // fault windows, frontend choices, op mutations.
  Random rng(options.seed);
  workload::WorkloadOptions wl;
  wl.key_count = options.key_count;
  wl.ops_per_session = options.ops_per_session;
  wl.seed = rng.NextUint64();
  workload::YcsbWorkload workload(wl);

  FaultSchedule schedule = BuildFaultSchedule(options, testbed, rng);
  const int handoff_stride = std::max(2, options.ops_per_session / 2);

  std::optional<core::Session> session;
  int frontend = 0;
  uint64_t ops_in_session = 0;

  for (uint64_t i = 0; i < options.total_ops; ++i) {
    const auto due = schedule.equal_range(i);
    for (auto it = due.first; it != due.second; ++it) {
      it->second();
    }
    if (options.enable_aggregator && i == options.total_ops / 2) {
      // Aggregator dies mid-run: digests stop arriving, installed priors age
      // past their TTL, and the monitors must carry selection on their own
      // probing for the rest of the run without a single violation.
      aggregator_pump.Cancel();
    }

    const workload::Operation op = workload.Next();
    if (op.starts_new_session || !session.has_value()) {
      frontend = static_cast<int>(rng.NextUint64(2));
      Result<core::Session> begun =
          frontends[frontend]->client().BeginSession(sla);
      session.emplace(std::move(begun).value());
      ++result.sessions;
      ops_in_session = 0;
    } else if (options.scenario == FaultScenario::kHandoff &&
               ops_in_session % handoff_stride == 0) {
      // Serialize the session and resume it on the other frontend; its
      // guarantees must keep holding across the move.
      Result<core::Session> resumed =
          core::Session::Deserialize(session->Serialize());
      if (resumed.ok()) {
        session.emplace(std::move(resumed).value());
        frontend = 1 - frontend;
        ++result.handoffs;
      }
    }

    core::PileusClient& client = frontends[frontend]->client();
    ++result.ops_attempted;
    ++ops_in_session;
    bool ok = true;
    if (op.is_get) {
      if (rng.NextBool(0.04)) {
        ok = client.GetRange(*session, op.key, "", 8).ok();
      } else {
        ok = client.Get(*session, op.key).ok();
      }
    } else {
      if (rng.NextBool(0.10)) {
        ok = client.Delete(*session, op.key).ok();
      } else {
        ok = client.Put(*session, op.key, op.value).ok();
      }
    }
    if (!ok) {
      ++result.ops_failed;
    }
    testbed.env().RunFor(wl.think_time_us);
  }

  us->StopProbing();
  india->StopProbing();
  testbed.faults().ClearAll();
  // A failover may still be in flight when the ops run out (detection is
  // bound to virtual time, not op count); run the clock until the promotion
  // lands so the ground-truth export below reads a live primary.
  if (geo.enable_failover) {
    for (int i = 0; i < 100 && testbed.IsNodeCrashed(testbed.primary_site());
         ++i) {
      testbed.env().RunFor(geo.failover_heartbeat_period_us);
    }
  }
  result.cache_served =
      us->client().cache_serves() + india->client().cache_serves();
  result.failovers = testbed.failovers();

  // The export sets `contiguous`, so it must run before the flag is read.
  bool contiguous = true;
  std::vector<proto::ObjectVersion> committed =
      testbed.primary_node()->ExportTableLog(kTableName, &contiguous);
  recorder.SetGroundTruth(std::move(committed), contiguous);
  result.history = recorder.Snapshot();
  result.report = audit::ConsistencyChecker().Check(result.history);
  if (!options.durable_root.empty() && contiguous) {
    CrossCheckPrimaryWal(options, testbed, result.history, &result.report);
  }
  return result;
}

}  // namespace pileus::experiments
