// Consistency-audit sweep runner (DESIGN.md "Consistency auditing").
//
// Runs seeded random workloads under scripted fault scenarios, records every
// client-visible operation, and audits the history offline against the
// committed write order. Every run goes through the same harness
// (src/experiments/scenario.h); the scenario and --transport pick its world:
// the deterministic simulator testbed, the real TCP stack, or the
// tablet-churn fleet. A failing run prints the command that reproduces it:
//
//   pileus_audit                        # default sweep: 8 seeds x 3 scenarios
//   pileus_audit --seed 42              # one seed across the scenario list
//   pileus_audit --seed 42 --scenarios crash-restart   # one exact run
//   pileus_audit --scenarios tablet-churn,tablet-churn-kill
//                                       # splits + live migrations, swept
//                                       # under none/partition/crash-restart
//   pileus_audit --transport tcp        # same audit over real sockets: the
//                                       # epoll transport, a durable primary
//                                       # with WAL group commit, replication
//                                       # pulls over TCP (wall-clock time, so
//                                       # runs are seeded but not bit-exact)
//
// Exits non-zero when any run reports a violation or fails to set up.

#include <stdlib.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/experiments/scenario.h"
#include "tools/flags.h"

namespace pileus {
namespace {

using experiments::AuditOptions;
using experiments::AuditResult;
using experiments::AuditWorld;
using experiments::FaultScenario;

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  size_t begin = 0;
  while (begin <= list.size()) {
    const size_t comma = list.find(',', begin);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) {
      out.push_back(list.substr(begin, end - begin));
    }
    if (comma == std::string::npos) {
      break;
    }
    begin = comma + 1;
  }
  return out;
}

int Run(int argc, char** argv) {
  tools::FlagSet flags;
  flags.DefineInt("seed", 0, "run only this seed (0 = sweep 1..num_seeds)");
  flags.DefineInt("num_seeds", 8, "seeds per scenario when sweeping");
  flags.DefineString("scenarios", "",
                     "comma-separated: none, partition, drops, gray, "
                     "crash-restart, handoff, failover, overload, "
                     "tablet-churn (concurrent splits + live migrations, "
                     "swept under none/partition/crash-restart sub-faults), "
                     "tablet-churn-kill (same churn with a durable "
                     "coordinator killed at rotating protocol crash points "
                     "and recovered from its intent log) "
                     "(default: none,partition,crash-restart on sim; "
                     "none,crash-restart,handoff on tcp)");
  flags.DefineString("transport", "sim",
                     "sim = deterministic simulator testbed; tcp = real "
                     "sockets on loopback (epoll transport, durable primary "
                     "with WAL group commit, replication pulls over TCP)");
  flags.DefineInt("ops", 600, "client operations per run");
  flags.DefineInt("keys", 100, "distinct keys in the workload");
  flags.DefineString("durable_root", "",
                     "directory for per-run WALs (default: a fresh temp dir)");
  flags.DefineBool("cache", false,
                   "give each frontend a consistency-aware client cache so "
                   "the checker audits cache-served reads");
  flags.DefineInt("cache_bytes", 4 << 20,
                  "per-frontend cache capacity in bytes (with --cache)");
  flags.DefineBool("aggregator", false,
                   "run a shared-monitoring aggregator alongside the "
                   "workload and kill it mid-run; priors and the fallback "
                   "to self-probing are both audited");
  if (!flags.Parse(argc, argv)) {
    return 2;
  }

  const std::string transport = flags.GetString("transport");
  if (transport != "sim" && transport != "tcp") {
    std::fprintf(stderr, "--transport must be 'sim' or 'tcp'\n");
    return 2;
  }
  const bool tcp = transport == "tcp";

  std::string scenario_list = flags.GetString("scenarios");
  if (scenario_list.empty()) {
    scenario_list =
        tcp ? "none,crash-restart,handoff" : "none,partition,crash-restart";
  }
  AuditOptions base;
  base.world = tcp ? AuditWorld::kTcp : AuditWorld::kSim;
  base.total_ops = static_cast<uint64_t>(flags.GetInt("ops"));
  base.key_count = static_cast<int>(flags.GetInt("keys"));
  base.client_cache = flags.GetBool("cache");
  base.cache_capacity_bytes =
      static_cast<uint64_t>(flags.GetInt("cache_bytes"));
  base.enable_aggregator = !tcp && flags.GetBool("aggregator");
  // One run per scenario and seed; the churn names expand into their three
  // sub-faults.
  std::vector<AuditOptions> runs;
  for (const std::string& name : SplitCommas(scenario_list)) {
    AuditOptions run = base;
    if (name == "tablet-churn" || name == "tablet-churn-kill") {
      if (tcp) {
        std::fprintf(stderr,
                     "%s runs on its own in-process world and is "
                     "not expressible over the tcp transport\n",
                     name.c_str());
        return 2;
      }
      run.world = AuditWorld::kChurn;
      run.enable_aggregator = false;
      run.coordinator_kill = name == "tablet-churn-kill";
      for (const FaultScenario fault :
           {FaultScenario::kNone, FaultScenario::kPartition,
            FaultScenario::kCrashRestart}) {
        run.scenario = fault;
        runs.push_back(run);
      }
      continue;
    }
    const auto scenario = experiments::ParseFaultScenario(name);
    if (!scenario.has_value()) {
      std::fprintf(stderr, "unknown scenario '%s'\n", name.c_str());
      return 2;
    }
    if (!experiments::WorldSupports(run.world, *scenario)) {
      std::fprintf(stderr,
                   "scenario '%s' is not expressible over the tcp transport "
                   "(supported: none, crash-restart, handoff)\n",
                   name.c_str());
      return 2;
    }
    run.scenario = *scenario;
    runs.push_back(run);
  }
  if (runs.empty()) {
    std::fprintf(stderr, "no scenarios selected\n");
    return 2;
  }

  std::vector<uint64_t> seeds;
  if (flags.GetInt("seed") != 0) {
    seeds.push_back(static_cast<uint64_t>(flags.GetInt("seed")));
  } else {
    for (int64_t s = 1; s <= flags.GetInt("num_seeds"); ++s) {
      seeds.push_back(static_cast<uint64_t>(s));
    }
  }

  std::string durable_root = flags.GetString("durable_root");
  if (durable_root.empty()) {
    char tmpl[] = "/tmp/pileus_audit.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 2;
    }
    durable_root = tmpl;
  }

  int failures = 0;
  int setup_failures = 0;
  uint64_t run_count = 0;
  for (AuditOptions options : runs) {
    for (const uint64_t seed : seeds) {
      options.seed = seed;
      // One subdirectory per run: WALs append, so runs must not share files.
      std::string run_dir = durable_root + "/";
      if (options.world == AuditWorld::kChurn) {
        run_dir += options.coordinator_kill ? "tablet-churn-kill_"
                                            : "tablet-churn_";
      }
      options.durable_root =
          run_dir + std::string(experiments::FaultScenarioName(
                        options.scenario)) +
          "_" + std::to_string(seed);
      const AuditResult result = experiments::RunAudit(options);
      ++run_count;
      std::printf("%s\n", result.Summary().c_str());
      if (result.ok()) {
        continue;
      }
      if (!result.setup.ok()) {
        ++setup_failures;
        continue;
      }
      ++failures;
      std::printf("%s\n", result.report.ToString().c_str());
      for (const auto& violation : result.report.violations) {
        for (const size_t index :
             {violation.op_index, violation.related_op_index}) {
          if (index < result.history.ops.size()) {
            std::printf("    op #%zu: %s\n", index,
                        audit::DescribeOp(result.history.ops[index]).c_str());
          }
        }
      }
    }
  }
  std::printf("%llu runs, %d with violations, %d failed to set up\n",
              static_cast<unsigned long long>(run_count), failures,
              setup_failures);
  return failures == 0 && setup_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pileus

int main(int argc, char** argv) { return pileus::Run(argc, argv); }
