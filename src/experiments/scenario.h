// Audit scenarios: seeded random workloads under seeded random faults, with
// every client-visible op recorded and checked offline (DESIGN.md
// "Consistency auditing").
//
// One harness drives every audit. It runs a YCSB-shaped op mix (Gets, Puts,
// Deletes, small Range scans, session turnover and hand-off) against the
// frontends of a world while that world's fault schedule fires underneath.
// Afterwards the world's committed-write order becomes the ground truth, the
// ConsistencyChecker audits the whole history, the primary's WAL is
// cross-checked against that order, and every acked write must appear in it.
// Three worlds plug in (see AuditWorld). Everything derives from one seed; a
// failing simulator run is reproduced bit-for-bit by the command its summary
// prints.

#ifndef PILEUS_SRC_EXPERIMENTS_SCENARIO_H_
#define PILEUS_SRC_EXPERIMENTS_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/audit/checker.h"
#include "src/audit/history.h"
#include "src/common/status.h"
#include "src/core/sla.h"

namespace pileus::experiments {

enum class FaultScenario {
  kNone = 0,       // Healthy network: any violation is a logic bug.
  kPartition,      // Timed two-way partitions between random site pairs.
  kDrops,          // Silent packet loss on a random site.
  kGray,           // Gray slowness episodes on random sites.
  kCrashRestart,   // Crash a secondary mid-run, restart it from its WAL.
  kHandoff,        // Serialize sessions and resume them on the other frontend.
  kFailover,       // Crash the PRIMARY mid-run: lease-based live failover.
  kOverload,       // Admission-shedding episodes: degraded reads must still
                   // honor their claimed (downgraded) guarantees.
};

std::string_view FaultScenarioName(FaultScenario scenario);
// Parses the names FaultScenarioName produces ("none", "partition", "drops",
// "gray", "crash-restart", "handoff", "failover", "overload"); nullopt for
// anything else.
std::optional<FaultScenario> ParseFaultScenario(std::string_view name);
std::vector<FaultScenario> AllFaultScenarios();

// Where an audit runs.
enum class AuditWorld {
  // The Fig-10 GeoTestbed on the deterministic simulator: two frontends (US,
  // India), virtual time, per-node WALs under durable_root.
  kSim = 0,
  // The deployment stack on loopback: a durable primary with WAL group
  // commit behind the epoll TcpServer, an in-memory secondary pulling over
  // TCP, two frontends over their own sockets. Wall-clock time, so runs are
  // seeded but not bit-exact.
  kTcp,
  // A fleet of in-process storage nodes whose TabletCoordinator keeps
  // splitting hot tablets and live-migrating ranges while a dynamic
  // ShardedClient runs the workload (DESIGN.md Section 14).
  kChurn,
};

// Whether `world` can express `scenario`. The simulator runs all of them;
// TCP runs none, crash-restart (the secondary is destroyed and rebuilt empty)
// and handoff; churn runs none, partition (one node cut off) and
// crash-restart (a tablet owner recovers from its WAL).
bool WorldSupports(AuditWorld world, FaultScenario scenario);

struct AuditOptions {
  AuditWorld world = AuditWorld::kSim;
  uint64_t seed = 1;
  FaultScenario scenario = FaultScenario::kNone;
  // Client operations across all frontends (excluding the preload).
  uint64_t total_ops = 600;
  int key_count = 100;
  // Created with any missing parents. Holds the primary WAL the run
  // cross-checks. Required by the TCP world, by kCrashRestart (the restarted
  // node recovers from its WAL) and by coordinator_kill (the intent log).
  std::string durable_root;
  // Give each frontend its own consistency-aware client cache, so
  // cache-served reads enter the audited history and the checker verifies
  // their claims like any network read (DESIGN.md "Client cache").
  bool client_cache = false;
  uint64_t cache_capacity_bytes = uint64_t{4} << 20;
  // Simulator only: run a shared-monitoring aggregator alongside the
  // workload (DESIGN.md Section 12). It pushes fleet digests to both
  // frontends as selection priors and is killed halfway through the run, so
  // the audit covers both the prior-driven and the self-probing phase.
  bool enable_aggregator = false;
  // Churn only: run the coordinator durably (intent log in durable_root) and
  // kill it mid-operation at rotating protocol crash points; a standby
  // recovers from the intent log (DESIGN.md Section 15).
  bool coordinator_kill = false;
};

// The audit SLA: one subSLA per guarantee, strongest first, so every claim
// path through DetermineMetRank gets exercised.
core::Sla AuditSla();

struct AuditResult {
  AuditOptions options;  // What ran; the summary's repro command comes from it.
  // Non-ok when the world could not be built or brought back to a healthy
  // state; the audit fields below are meaningless then.
  Status setup = Status::Ok();
  audit::AuditReport report;
  // The audited history (kept so violation reports can cite full op records).
  audit::History history;
  uint64_t ops_attempted = 0;
  uint64_t ops_failed = 0;  // Op returned an error (fine under faults).
  uint64_t sessions = 0;
  uint64_t handoffs = 0;
  uint64_t cache_served = 0;  // Gets answered by the frontends' caches.
  uint64_t failovers = 0;     // Completed primary promotions (kFailover).
  // Every acked Put/Delete (preload included) must be in the ground truth;
  // checked whenever the ground truth is complete.
  uint64_t acked_writes = 0;
  uint64_t lost_acked_writes = 0;
  // Churn world: control-plane work summed over every coordinator
  // incarnation, and the table's layout at the end of the run.
  uint64_t splits = 0;
  uint64_t migrations = 0;
  uint64_t migration_failures = 0;
  uint64_t map_refreshes = 0;  // Client-side map adoptions after fences.
  uint64_t final_tablets = 0;
  uint64_t final_map_version = 0;
  // Coordinator-kill runs: crash-point kills taken and standby recoveries
  // (equal when the run ends healthy).
  uint64_t coordinator_kills = 0;
  uint64_t coordinator_recoveries = 0;

  bool ok() const {
    return setup.ok() && report.ok() && lost_acked_writes == 0;
  }
  // One line: verdict, scenario, seed, op counts and, on failure, the
  // pileus_audit command that re-runs it with every non-default setting.
  std::string Summary() const;
};

AuditResult RunAudit(const AuditOptions& options);

}  // namespace pileus::experiments

#endif  // PILEUS_SRC_EXPERIMENTS_SCENARIO_H_
