// The audit harness behind RunAudit (private to src/experiments).
//
// RunInWorld owns everything the worlds share: the preload, the seeded op
// loop, the fault schedule and the audit after it. A world is a class that
// supplies only what differs between the simulator, TCP and churn setups:
//
//   using Client = ...;  // PileusClient or ShardedClient: same op signatures
//   World(const AuditOptions&, audit::HistoryRecorder*);
//   Status Build();                   // Frontends record into the recorder.
//   std::vector<Client*> frontends(); // At least one; [0] runs the preload.
//   void Start();                     // After the preload, before op 0.
//   // Adds the world's fault actions; `rng` and `schedule` outlive the loop.
//   void ScheduleFaults(Random& rng, FaultSchedule* schedule);
//   void Think();                     // Between two ops.
//   Status Finish(AuditResult*);      // Heal, quiesce, fill world counters.
//   std::vector<proto::ObjectVersion> ExportGroundTruth(bool* contiguous);
//   std::string PrimaryWalPath();     // Empty when there is none to check.

#ifndef PILEUS_SRC_EXPERIMENTS_HARNESS_H_
#define PILEUS_SRC_EXPERIMENTS_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/audit/history.h"
#include "src/common/random.h"
#include "src/core/session.h"
#include "src/experiments/scenario.h"
#include "src/proto/messages.h"
#include "src/workload/ycsb.h"

namespace pileus::experiments {

// Fault actions keyed by the op index they fire before, in insertion order.
// An action may add entries for later ops (e.g. a recovery after a kill).
using FaultSchedule = std::multimap<uint64_t, std::function<void()>>;

inline constexpr int kOpsPerSession = 40;

// The audit after the op loop: `truth` becomes the history's ground truth,
// the ConsistencyChecker runs, and - when the truth is contiguous - the
// primary WAL at `primary_wal` (if any) and every acked write are checked
// against it.
void AuditHistory(audit::HistoryRecorder& recorder,
                  std::vector<proto::ObjectVersion> truth, bool contiguous,
                  const std::string& primary_wal, AuditResult* result);

template <typename World>
AuditResult RunInWorld(const AuditOptions& options) {
  AuditResult result;
  result.options = options;
  audit::HistoryRecorder recorder;
  World world(options, &recorder);
  result.setup = world.Build();
  if (!result.setup.ok()) {
    return result;
  }
  const std::vector<typename World::Client*> frontends = world.frontends();
  const core::Sla sla = AuditSla();

  // Preload through a client rather than straight into the tablets: writes
  // that bypass the primary's WAL are lost across a crash-restart, and a
  // restarted node would then advertise a fresh high timestamp while
  // missing the preloaded keys.
  {
    Result<core::Session> preload = frontends[0]->BeginSession(sla);
    if (preload.ok()) {
      const std::string value(100, 'p');
      for (int i = 0; i < options.key_count; ++i) {
        (void)frontends[0]->Put(
            *preload, workload::YcsbWorkload::KeyForIndex(i), value);
      }
    }
  }
  world.Start();

  // Everything random below derives from the one seed: workload stream,
  // fault windows, frontend choices, op mutations.
  Random rng(options.seed);
  workload::WorkloadOptions wl;
  wl.key_count = options.key_count;
  wl.ops_per_session = kOpsPerSession;
  wl.seed = rng.NextUint64();
  workload::YcsbWorkload workload(wl);
  FaultSchedule schedule;
  world.ScheduleFaults(rng, &schedule);
  constexpr int kHandoffStride = kOpsPerSession / 2;

  std::optional<core::Session> session;
  size_t frontend = 0;
  uint64_t ops_in_session = 0;
  for (uint64_t i = 0; i < options.total_ops; ++i) {
    // The key is re-checked per entry: an entry an action adds for a later
    // op may land right behind op i's entries.
    for (auto it = schedule.lower_bound(i);
         it != schedule.end() && it->first == i; ++it) {
      it->second();
    }

    const workload::Operation op = workload.Next();
    if (op.starts_new_session || !session.has_value()) {
      frontend = static_cast<size_t>(rng.NextUint64(frontends.size()));
      Result<core::Session> begun = frontends[frontend]->BeginSession(sla);
      session.emplace(std::move(begun).value());
      ++result.sessions;
      ops_in_session = 0;
    } else if (options.scenario == FaultScenario::kHandoff &&
               ops_in_session % kHandoffStride == 0) {
      // Serialize the session and resume it on the next frontend; its
      // guarantees must keep holding across the move.
      Result<core::Session> resumed =
          core::Session::Deserialize(session->Serialize());
      if (resumed.ok()) {
        session.emplace(std::move(resumed).value());
        frontend = (frontend + 1) % frontends.size();
        ++result.handoffs;
      }
    }

    typename World::Client& client = *frontends[frontend];
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
    world.Think();
  }

  result.setup = world.Finish(&result);
  if (!result.setup.ok()) {
    return result;
  }
  // The export sets `contiguous`, so it must run before the flag is read.
  bool contiguous = true;
  std::vector<proto::ObjectVersion> truth =
      world.ExportGroundTruth(&contiguous);
  AuditHistory(recorder, std::move(truth), contiguous, world.PrimaryWalPath(),
               &result);
  return result;
}

// One instantiation of RunInWorld per world, each in its world's file.
AuditResult RunSimAudit(const AuditOptions& options);
AuditResult RunTcpAudit(const AuditOptions& options);
AuditResult RunChurnAudit(const AuditOptions& options);

}  // namespace pileus::experiments

#endif  // PILEUS_SRC_EXPERIMENTS_HARNESS_H_
