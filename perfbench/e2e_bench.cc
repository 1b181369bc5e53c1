// End-to-end benchmark: real PileusClients over loopback TCP against a
// durable group-commit primary and a replicated in-memory secondary, wired
// as src/experiments/tcp_scenario.cc wires its audit stack (see LockedPuller
// for the one difference).
//
//   e2e_bench --workload read_only|mixed_50_50|cached_read --seed N
//             --seconds S --trace 0|1 --data_dir DIR [--trace_out FILE]
//
// --trace 0 measures the end-to-end metrics: the stack is set up three times
// (set-up time is the median), then two closed-loop client threads run the
// workload for S seconds, cut into 100 ms sub-windows. The main thread times
// a fixed unit of CPU work, the machine probe, about 20 times in each; the
// Get median and the CPU time per op are reported as the median of their
// ratio to the probe over the sub-windows without CPU steal, so that a
// shared machine's changing speed cancels out. --trace 1 sets
// up once, runs an untraced window and then a traced window of S seconds
// each, and reports the per-layer split of the traced window together with
// the tracing overhead. Layers are timed from outside, around the public
// calls the benchmark makes into them: a NodeConnection decorator in each
// client's TableView, wrappers around the two TcpServer handlers and the
// replication SyncFn, and the counters and snapshots the modules already
// export. The last stdout line is the result JSON; the process exits 1 when
// any correctness check fails.

#include <sys/resource.h>
#include <fcntl.h>
#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "perfbench/stats.h"
#include "src/audit/checker.h"
#include "src/audit/history.h"
#include "src/cache/client_cache.h"
#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/core/client.h"
#include "src/core/selection.h"
#include "src/core/sla.h"
#include "src/net/tcp.h"
#include "src/persist/durable_service.h"
#include "src/persist/durable_tablet.h"
#include "src/proto/messages.h"
#include "src/replication/replication_agent.h"
#include "src/storage/storage_node.h"
#include "src/workload/ycsb.h"

namespace perfbench {
namespace {

using pileus::MicrosecondCount;
using pileus::Result;
using pileus::Status;
using pileus::StatusCode;
using pileus::Timestamp;
namespace core = pileus::core;
namespace net = pileus::net;
namespace persist = pileus::persist;
namespace proto = pileus::proto;
namespace replication = pileus::replication;
namespace storage = pileus::storage;
namespace workload = pileus::workload;

// --- Fixed stack and load settings (stated in the run context line). ---
constexpr const char* kTable = "ycsb";
constexpr const char* kPrimaryName = "primary";
constexpr const char* kSecondaryName = "secondary";
constexpr int kKeyCount = 10'000;
constexpr size_t kValueBytes = 100;
constexpr double kZipfTheta = 0.7;
constexpr int kOpsPerSession = 400;
constexpr int kClients = 2;
constexpr int kPreloadClients = 8;
constexpr size_t kGroupCommitBatch = 64;
constexpr MicrosecondCount kGroupCommitDelayUs = 500;
constexpr MicrosecondCount kPullPeriodUs = 20'000;
constexpr size_t kCacheBytes = size_t{32} << 20;
constexpr int kSetupRepeats = 3;
constexpr int kWarmChunkOps = 1000;
constexpr int kMaxWarmChunks = 20;
constexpr double kHitRateLevel = 0.01;
constexpr int64_t kSubWindowNs = 100'000'000;  // Measured windows are cut
                                               // into 100 ms sub-windows,
constexpr int64_t kProbeEveryNs = 5'000'000;   // each with ~20 machine probes.
constexpr int kShadowStride = 16;       // 1-in-N Gets get shadow timings.
constexpr int kProbeCheckStride = 64;   // Ops between ProbeStaleNodes calls.
constexpr MicrosecondCount kLagSampleUs = 5'000;
constexpr uint64_t kAuditOps = 200'000;   // Records the traced run audits.
constexpr uint8_t kPreloadWriter = 9;

enum class OpType : uint8_t { kGet = 0, kPut = 1 };

struct WorkloadSpec {
  const char* name;
  double read_fraction;
  bool client_cache;
  bool lone_put_probe;  // Puts are measured after the window, not in it.
};

constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"read_only", 1.0, false, true},
    {"mixed_50_50", 0.5, false, false},
    {"cached_read", 0.95, true, false},
}};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1000.0; }
double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- Self-describing values: "<key>|w<writer>|s<seq>|" padded with '.'. ---

std::string MakeValue(std::string_view key, uint8_t writer, uint64_t seq) {
  std::string value = std::string(key) + "|w" + std::to_string(writer) +
                      "|s" + std::to_string(seq) + "|";
  value.resize(std::max(value.size(), kValueBytes), '.');
  return value;
}

// Sequence numbers each writer has handed out so far; a read may only return
// a value its writer had already issued.
std::array<std::atomic<uint64_t>, kClients> g_issued{};

// Empty when `value` is a value some writer produced for `key`.
std::string CheckValue(std::string_view key, std::string_view value) {
  const std::string prefix = std::string(key) + "|w";
  if (value.size() != kValueBytes) {
    return "wrong value length";
  }
  if (value.substr(0, prefix.size()) != prefix) {
    return "value written for another key";
  }
  unsigned writer = 0;
  unsigned long long seq = 0;
  int consumed = 0;
  const std::string rest(value.substr(prefix.size()));
  if (std::sscanf(rest.c_str(), "%u|s%llu|%n", &writer, &seq, &consumed) != 2 ||
      consumed == 0) {
    return "malformed value";
  }
  if (rest.find_first_not_of('.', consumed) != std::string::npos) {
    return "corrupt padding";
  }
  if (writer == kPreloadWriter) {
    return seq < static_cast<unsigned long long>(kKeyCount)
               ? ""
               : "preload sequence out of range";
  }
  if (writer >= kClients) {
    return "unknown writer";
  }
  if (seq == 0 || seq > g_issued[writer].load(std::memory_order_acquire)) {
    return "sequence never issued";
  }
  return "";
}

// --- Tracing state. ---

// Spans of one client thread. Only that thread touches it: the client calls
// its connections synchronously (no fan-out), so no locking is needed.
struct ClientTrace {
  static constexpr uint32_t kNoOp = UINT32_MAX;
  struct OpSpan {
    Interval span;
    OpType type = OpType::kGet;
    bool ok = false;
    bool from_cache = false;
    uint32_t first_call = 0;
    uint32_t call_count = 0;
  };
  struct CallSpan {
    Interval span;
    uint32_t op = kNoOp;  // Parent op span, kNoOp for probes between ops.
    uint8_t node = 0;
    proto::MessageType type = proto::MessageType::kGetRequest;
    bool ok = false;
  };

  bool on = false;
  std::vector<OpSpan> ops;
  std::vector<CallSpan> calls;
  uint32_t current_op = kNoOp;
  bool capture_get = false;
  std::optional<proto::GetRequest> captured_request;
  std::optional<proto::GetReply> captured_reply;

  void BeginOp(OpType type, int64_t start_ns) {
    if (!on) {
      return;
    }
    current_op = static_cast<uint32_t>(ops.size());
    OpSpan op;
    op.span.start_ns = start_ns;
    op.type = type;
    op.first_call = static_cast<uint32_t>(calls.size());
    ops.push_back(op);
  }
  void EndOp(int64_t end_ns, bool ok, bool from_cache) {
    if (!on || current_op == kNoOp) {
      return;
    }
    OpSpan& op = ops[current_op];
    op.span.end_ns = end_ns;
    op.ok = ok;
    op.from_cache = from_cache;
    op.call_count = static_cast<uint32_t>(calls.size()) - op.first_call;
    current_op = kNoOp;
  }
};

// Server-side handler timings, aggregated per (server, request type): no
// wire trace id links them to client spans.
class ServerTrace {
 public:
  enum Server : uint8_t { kPrimary = 0, kSecondary = 1 };

  std::atomic<bool> on{false};

  void Record(Server server, proto::MessageType type, int64_t ns) {
    std::lock_guard<std::mutex> lock(mu_);
    handler_us_[{server, type}].Add(NsToUs(ns));
  }
  void RecordPull(int64_t ns, size_t versions) {
    std::lock_guard<std::mutex> lock(mu_);
    pull_us_.Add(NsToUs(ns));
    pull_versions_.Add(static_cast<double>(versions));
  }
  Sample Handler(Server server, proto::MessageType type) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = handler_us_.find({server, type});
    return it == handler_us_.end() ? Sample() : it->second;
  }
  Sample pull_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pull_us_;
  }
  Sample pull_versions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pull_versions_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<Server, proto::MessageType>, Sample> handler_us_;
  Sample pull_us_;
  Sample pull_versions_;
};

ServerTrace g_server_trace;

// NodeConnection decorator: a child span per Call, parented to the op the
// owning client thread is running.
class TracingConnection : public core::NodeConnection {
 public:
  TracingConnection(std::shared_ptr<core::NodeConnection> inner, uint8_t node,
                    ClientTrace* trace)
      : inner_(std::move(inner)), node_(node), trace_(trace) {}

  core::TimedReply Call(const proto::Message& request,
                        MicrosecondCount timeout_us) override {
    if (!trace_->on) {
      return inner_->Call(request, timeout_us);
    }
    ClientTrace::CallSpan call;
    call.op = trace_->current_op;
    call.node = node_;
    call.type = proto::TypeOf(request);
    call.span.start_ns = NowNs();
    core::TimedReply timed = inner_->Call(request, timeout_us);
    call.span.end_ns = NowNs();
    call.ok = timed.reply.ok() &&
              !std::holds_alternative<proto::ErrorReply>(timed.reply.value());
    trace_->calls.push_back(call);
    if (trace_->capture_get && call.ok &&
        call.type == proto::MessageType::kGetRequest) {
      trace_->captured_request = std::get<proto::GetRequest>(request);
      if (const auto* reply =
              std::get_if<proto::GetReply>(&timed.reply.value())) {
        trace_->captured_reply = *reply;
      }
    }
    return timed;
  }

 private:
  std::shared_ptr<core::NodeConnection> inner_;
  const uint8_t node_;
  ClientTrace* trace_;
};

// Forwards audit records to a HistoryRecorder while recording is on, up to
// kAuditOps records, so the audited history is the start of the traced
// window and its memory stays bounded. Ops left out of the history only
// remove constraints from the checker; they cannot cause a violation.
class WindowObserver : public core::OpObserver {
 public:
  std::atomic<bool> on{false};
  pileus::audit::HistoryRecorder recorder;

  void OnOp(const core::OpRecord& record) override {
    if (on.load(std::memory_order_relaxed) &&
        recorded_.fetch_add(1, std::memory_order_relaxed) < kAuditOps) {
      recorder.OnOp(record);
    }
  }

 private:
  std::atomic<uint64_t> recorded_{0};
};

// --- The stack. ---

Result<proto::SyncReply> SyncOverTcp(net::Channel& channel,
                                     const proto::SyncRequest& request) {
  const int64_t start = NowNs();
  Result<proto::Message> reply =
      channel.Call(request, pileus::SecondsToMicroseconds(10));
  if (!reply.ok()) {
    return reply.status();
  }
  if (const auto* err = std::get_if<proto::ErrorReply>(&reply.value())) {
    return Status(err->code, err->message);
  }
  if (auto* sync = std::get_if<proto::SyncReply>(&reply.value())) {
    if (g_server_trace.on.load(std::memory_order_relaxed)) {
      g_server_trace.RecordPull(NowNs() - start, sync->versions.size());
    }
    return std::move(*sync);
  }
  return Status(StatusCode::kInternal, "unexpected reply type for sync");
}

// Pulls the primary's log into the secondary every kPullPeriodUs, as
// replication::ThreadedPuller does, but applies each reply under the node's
// request lock. ThreadedPuller hands replies to ReplicationAgent::OnReply,
// which writes the tablet while the node's server threads read it; a Get
// can then return a version above the high timestamp it reports, which the
// traced run's audit flags. StorageNode asks threaded callers to
// synchronize through WithLock, so this puller does.
class LockedPuller {
 public:
  LockedPuller(storage::StorageNode* node,
               replication::ReplicationAgent* agent, net::Channel* channel)
      : node_(node), agent_(agent), channel_(channel) {}
  ~LockedPuller() { Stop(); }

  LockedPuller(const LockedPuller&) = delete;
  LockedPuller& operator=(const LockedPuller&) = delete;

  // One pull, repeated while the primary reports more. NextRequest reads
  // the tablet's high timestamp unlocked: only this puller writes it.
  Status PullOnce() {
    bool more = true;
    while (more) {
      Result<proto::SyncReply> reply =
          SyncOverTcp(*channel_, agent_->NextRequest());
      if (!reply.ok()) {
        return reply.status();
      }
      more = node_->WithLock([&] { return agent_->OnReply(reply.value()); });
    }
    return Status::Ok();
  }

  void Start() { thread_ = std::thread([this] { Loop(); }); }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  void PullNow() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pull_requested_ = true;
    }
    cv_.notify_all();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::microseconds(kPullPeriodUs),
                   [this] { return stop_ || pull_requested_; });
      if (stop_) {
        return;
      }
      pull_requested_ = false;
      lock.unlock();
      Status status = PullOnce();
      if (!status.ok()) {
        PILEUS_LOG(kWarning) << "replication pull failed: " << status;
      }
      lock.lock();
    }
  }

  storage::StorageNode* node_;
  replication::ReplicationAgent* agent_;
  net::Channel* channel_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool pull_requested_ = false;
  std::thread thread_;
};

// Durable group-commit primary behind TcpServer::StartAsync and an in-memory
// secondary behind TcpServer::Start, pulled over TCP every kPullPeriodUs.
class Stack {
 public:
  ~Stack() {
    StopSecondary();
    primary_server_.Stop();
    service_.reset();
    durable_.reset();
  }

  Status Start(const std::string& directory) {
    pileus::Clock* clock = pileus::RealClock::Instance();
    std::filesystem::create_directories(directory);
    directory_ = directory;
    persist::DurableTablet::Options durable_options;
    durable_options.directory = directory;
    durable_options.tablet.is_primary = true;
    Result<std::unique_ptr<persist::DurableTablet>> opened =
        persist::DurableTablet::Open(durable_options, clock);
    if (!opened.ok()) {
      return opened.status();
    }
    durable_ = std::move(opened).value();
    persist::GroupCommitConfig group_commit;
    group_commit.enabled = true;
    group_commit.max_batch = kGroupCommitBatch;
    group_commit.max_delay_us = kGroupCommitDelayUs;
    service_ = std::make_unique<persist::DurableStorageService>(
        kTable, durable_.get(), group_commit);
    Status status = primary_server_.StartAsync(
        0, [service = service_.get()](
               const proto::Message& m,
               std::function<void(proto::Message)> done) {
          if (!g_server_trace.on.load(std::memory_order_relaxed)) {
            service->HandleAsync(m, std::move(done));
            return;
          }
          const int64_t start = NowNs();
          const proto::MessageType type = proto::TypeOf(m);
          service->HandleAsync(
              m, [start, type, done = std::move(done)](proto::Message reply) {
                g_server_trace.Record(ServerTrace::kPrimary, type,
                                      NowNs() - start);
                done(std::move(reply));
              });
        });
    if (!status.ok()) {
      return status;
    }

    secondary_ = std::make_unique<storage::StorageNode>(kSecondaryName, "bench",
                                                        clock);
    storage::Tablet::Options tablet_options;  // Not primary.
    PILEUS_RETURN_IF_ERROR(secondary_->AddTablet(kTable, tablet_options));
    pull_channel_ = std::make_unique<net::TcpChannel>(primary_server_.port());
    replication::ReplicationAgent::Options agent_options;
    agent_options.table = kTable;
    agent_ = std::make_unique<replication::ReplicationAgent>(
        secondary_->FindTablet(kTable, ""), agent_options);
    puller_ = std::make_unique<LockedPuller>(secondary_.get(), agent_.get(),
                                             pull_channel_.get());
    (void)puller_->PullOnce();
    puller_->Start();
    return secondary_server_.Start(
        0, [node = secondary_.get()](const proto::Message& m) {
          if (!g_server_trace.on.load(std::memory_order_relaxed)) {
            return node->Handle(m);
          }
          const int64_t start = NowNs();
          proto::Message reply = node->Handle(m);
          g_server_trace.Record(ServerTrace::kSecondary, proto::TypeOf(m),
                                NowNs() - start);
          return reply;
        });
  }

  // Stops replication and the secondary's server (before the audit freezes
  // the primary's commit order).
  void StopSecondary() {
    secondary_server_.Stop();
    puller_.reset();
    agent_.reset();
    pull_channel_.reset();
    secondary_.reset();
  }

  // Waits until the secondary's high timestamp reaches `target`.
  bool WaitForSecondary(const Timestamp& target, MicrosecondCount timeout_us) {
    const int64_t deadline = NowNs() + timeout_us * 1000;
    while (NowNs() < deadline) {
      if (!(SecondaryHigh() < target)) {
        return true;
      }
      puller_->PullNow();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  Timestamp PrimaryHigh() {
    proto::Message reply = service_->Handle(proto::ProbeRequest{kTable});
    const auto* probe = std::get_if<proto::ProbeReply>(&reply);
    return probe == nullptr ? Timestamp::Zero() : probe->high_timestamp;
  }
  Timestamp SecondaryHigh() const {
    return secondary_->HighTimestamp(kTable, "");
  }

  uint16_t primary_port() const { return primary_server_.port(); }
  uint16_t secondary_port() const { return secondary_server_.port(); }
  persist::DurableStorageService& service() { return *service_; }
  persist::DurableTablet& durable() { return *durable_; }
  uint64_t WalBytes() const {
    std::error_code ec;
    const auto size =
        std::filesystem::file_size(directory_ + "/wal.log", ec);
    return ec ? 0 : static_cast<uint64_t>(size);
  }

 private:
  std::string directory_;
  std::unique_ptr<persist::DurableTablet> durable_;
  std::unique_ptr<persist::DurableStorageService> service_;
  net::TcpServer primary_server_;
  std::unique_ptr<storage::StorageNode> secondary_;
  std::unique_ptr<net::TcpChannel> pull_channel_;
  std::unique_ptr<replication::ReplicationAgent> agent_;
  std::unique_ptr<LockedPuller> puller_;
  net::TcpServer secondary_server_;
};

std::shared_ptr<core::NodeConnection> Connect(uint16_t port) {
  return std::make_shared<core::ChannelConnection>(
      std::make_shared<net::TcpChannel>(port), pileus::RealClock::Instance());
}

// --- Load generator. ---

// Results of one measured window, split into sub-windows (see
// WindowedSample). Per client, then merged.
struct WindowStats {
  explicit WindowStats(size_t windows = 1)
      : get_us(windows), put_us(windows), completed_in(windows, 0) {}

  uint64_t attempted = 0;
  uint64_t completed = 0;
  WindowedSample get_us;
  WindowedSample put_us;
  std::vector<uint64_t> completed_in;  // Completed ops per sub-window.
  std::vector<double> cpu_s_in;        // Process CPU seconds per sub-window.
  std::vector<double> steal_in;        // Machine CPU steal share per sub-window.
  std::vector<double> probe_us_in;     // Median MachineProbeUs per sub-window.
  UtilityLedger utility;
  uint64_t network_gets = 0;
  uint64_t secondary_gets = 0;
  uint64_t cache_gets = 0;
  uint64_t messages = 0;  // Client messages_sent delta, probes included.
  Sample select_us;       // Shadow SelectTarget timings.
  Sample codec_us;        // Shadow encode+decode of Get request and reply.
  Sample reply_bytes;
  std::vector<std::string> errors;

  void Merge(const WindowStats& o) {
    attempted += o.attempted;
    completed += o.completed;
    get_us.Merge(o.get_us);
    put_us.Merge(o.put_us);
    for (size_t i = 0; i < completed_in.size() && i < o.completed_in.size();
         ++i) {
      completed_in[i] += o.completed_in[i];
    }
    utility.Merge(o.utility);
    network_gets += o.network_gets;
    secondary_gets += o.secondary_gets;
    cache_gets += o.cache_gets;
    messages += o.messages;
    select_us.Append(o.select_us);
    codec_us.Append(o.codec_us);
    reply_bytes.Append(o.reply_bytes);
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }
};

class BenchClient {
 public:
  BenchClient(uint8_t id, const WorkloadSpec& spec, uint64_t seed,
              const Stack& stack, WindowObserver* observer)
      : id_(id), spec_(spec), rng_(seed) {
    if (spec.client_cache) {
      pileus::cache::ClientCache::Options cache_options;
      cache_options.capacity_bytes = kCacheBytes;
      cache_ = std::make_unique<pileus::cache::ClientCache>(cache_options);
    }
    core::TableView view;
    view.table_name = kTable;
    view.replicas = {
        core::Replica{kPrimaryName, true,
                      std::make_shared<TracingConnection>(
                          Connect(stack.primary_port()), 0, &trace_)},
        core::Replica{kSecondaryName, false,
                      std::make_shared<TracingConnection>(
                          Connect(stack.secondary_port()), 1, &trace_)}};
    view.primary_index = 0;
    core::PileusClient::Options options;
    options.op_observer = observer;
    options.cache = cache_.get();
    options.seed = rng_.NextUint64();
    client_ = std::make_unique<core::PileusClient>(
        std::move(view), pileus::RealClock::Instance(), options);
    replica_views_ = client_->table().MakeReplicaViews();
    workload::WorkloadOptions wl;
    wl.key_count = kKeyCount;
    wl.read_fraction = spec.read_fraction;
    wl.zipf_theta = kZipfTheta;
    wl.ops_per_session = kOpsPerSession;
    wl.value_size = static_cast<int>(kValueBytes);
    wl.think_time_us = 0;
    wl.seed = rng_.NextUint64();
    workload_ = std::make_unique<workload::YcsbWorkload>(wl);
  }

  ClientTrace& trace() { return trace_; }
  pileus::cache::ClientCache* cache() { return cache_.get(); }

  // Smallest per-node latency window in this client's monitor.
  size_t MinWindowSamples() const {
    size_t min_samples = SIZE_MAX;
    const auto snapshot = client_->monitor().Snapshot();
    for (const auto& view : replica_views_) {
      size_t samples = 0;
      for (const auto& node : snapshot) {
        if (node.node == view.name) {
          samples = node.latency_samples;
        }
      }
      min_samples = std::min(min_samples, samples);
    }
    return min_samples;
  }

  // Untimed ops until the client is in steady state: on cached_read every
  // key is read once and then chunks run until the hit rate levels; the
  // monitor's latency windows are topped up to their cap with probes.
  Status WarmUp() {
    WindowStats scratch;
    if (spec_.client_cache) {
      Result<core::Session> session =
          client_->BeginSession(core::ShoppingCartSla());
      for (int i = 0; i < kKeyCount && session.ok(); ++i) {
        const std::string key =
            workload::YcsbWorkload::KeyForIndex(static_cast<uint64_t>(i));
        Result<core::GetResult> got = client_->Get(*session, key);
        if (!got.ok()) {
          return got.status();
        }
      }
    }
    double previous_rate = -1.0;
    for (int chunk = 0; chunk < kMaxWarmChunks; ++chunk) {
      const uint64_t serves_before = client_->cache_serves();
      const uint64_t gets_before = client_->gets_issued();
      for (int i = 0; i < kWarmChunkOps; ++i) {
        RunOp(&scratch, /*window=*/-1);
      }
      if (!scratch.errors.empty()) {
        return Status(StatusCode::kInternal, scratch.errors.front());
      }
      const uint64_t gets = client_->gets_issued() - gets_before;
      const double rate =
          gets == 0 ? 0.0
                    : static_cast<double>(client_->cache_serves() -
                                          serves_before) /
                          static_cast<double>(gets);
      if (chunk >= 1 && (!spec_.client_cache ||
                         std::abs(rate - previous_rate) < kHitRateLevel)) {
        break;
      }
      previous_rate = rate;
    }
    const size_t cap = client_->monitor().options().latency_window.max_samples;
    for (int guard = 0; guard < 4 * static_cast<int>(cap); ++guard) {
      bool full = true;
      const auto snapshot = client_->monitor().Snapshot();
      for (size_t i = 0; i < replica_views_.size(); ++i) {
        size_t samples = 0;
        for (const auto& node : snapshot) {
          if (node.node == replica_views_[i].name) {
            samples = node.latency_samples;
          }
        }
        if (samples < cap) {
          full = false;
          for (size_t k = samples; k < cap; ++k) {
            PILEUS_RETURN_IF_ERROR(client_->ProbeNode(static_cast<int>(i)));
          }
        }
      }
      if (full) {
        return Status::Ok();
      }
    }
    return Status(StatusCode::kInternal, "monitor windows never filled");
  }

  // What a client does during a measured window.
  enum class Role {
    kWorkload,         // The workload's mix, measured.
    kLonePuts,         // Sequential Puts, measured (read_only's probe).
    kBackgroundReads,  // The workload's mix, unmeasured (beside kLonePuts).
  };

  // Closed loop with zero think time for `windows` sub-windows of `sub_ns`
  // from `start_ns`; an op counts in the sub-window it starts in.
  WindowStats RunWindow(int64_t start_ns, int64_t sub_ns, size_t windows,
                        bool traced, Role role) {
    WindowStats stats(windows);
    trace_.on = traced && role != Role::kBackgroundReads;
    const uint64_t messages_before = client_->messages_sent();
    const int64_t deadline_ns =
        start_ns + sub_ns * static_cast<int64_t>(windows);
    Result<core::Session> lone_session =
        client_->BeginSession(core::ShoppingCartSla());
    uint64_t ops = 0;
    for (int64_t now = NowNs(); now < deadline_ns; now = NowNs()) {
      const int window = static_cast<int>((now - start_ns) / sub_ns);
      if (role == Role::kLonePuts && lone_session.ok()) {
        DoPut(*lone_session, workload_->Next().key, &stats, window);
      } else {
        RunOp(&stats, role == Role::kWorkload ? window : -1);
      }
      if (++ops % kProbeCheckStride == 0) {
        client_->ProbeStaleNodes();
      }
    }
    trace_.on = false;
    stats.messages = client_->messages_sent() - messages_before;
    return stats;
  }

 private:
  // `window` is the sub-window the op is measured in; -1 for untimed ops.
  void RunOp(WindowStats* stats, int window) {
    const workload::Operation op = workload_->Next();
    if (op.starts_new_session || !session_.has_value()) {
      Result<core::Session> begun =
          client_->BeginSession(core::ShoppingCartSla());
      if (!begun.ok()) {
        stats->errors.push_back("BeginSession: " + begun.status().ToString());
        return;
      }
      session_.emplace(std::move(begun).value());
    }
    if (op.is_get) {
      DoGet(*session_, op.key, stats, window);
    } else {
      DoPut(*session_, op.key, stats, window);
    }
  }

  void DoGet(core::Session& session, const std::string& key,
             WindowStats* stats, int window) {
    const bool shadow = trace_.on && (++get_counter_ % kShadowStride == 0);
    trace_.capture_get = shadow;
    const int64_t start = NowNs();
    trace_.BeginOp(OpType::kGet, start);
    Result<core::GetResult> got = client_->Get(session, key);
    const int64_t end = NowNs();
    const bool ok = got.ok();
    trace_.EndOp(end, ok, ok && got->outcome.from_cache);
    trace_.capture_get = false;
    ++stats->attempted;
    stats->utility.Record(ok, ok ? got->outcome.utility : 0.0,
                          ok ? got->outcome.met_rank : -1);
    if (!ok) {
      if (stats->errors.size() < 8) {
        stats->errors.push_back("Get " + key + ": " + got.status().ToString());
      }
      return;
    }
    ++stats->completed;
    if (window >= 0) {
      stats->get_us.Add(window, NsToUs(end - start));
      ++stats->completed_in[std::min<size_t>(window,
                                             stats->completed_in.size() - 1)];
    }
    if (got->outcome.from_cache) {
      ++stats->cache_gets;
    } else {
      ++stats->network_gets;
      if (got->outcome.node_index == 1) {
        ++stats->secondary_gets;
      }
    }
    const std::string problem =
        got->found ? CheckValue(key, got->value) : "key not found";
    if (!problem.empty() && stats->errors.size() < 8) {
      stats->errors.push_back("Get " + key + " from " +
                              got->outcome.node_name + ": " + problem);
    }
    if (shadow) {
      ShadowTimings(session, key, stats);
    }
  }

  void DoPut(core::Session& session, const std::string& key,
             WindowStats* stats, int window) {
    const uint64_t seq =
        g_issued[id_].fetch_add(1, std::memory_order_acq_rel) + 1;
    const std::string value = MakeValue(key, id_, seq);
    const int64_t start = NowNs();
    trace_.BeginOp(OpType::kPut, start);
    Result<core::PutResult> put = client_->Put(session, key, value);
    const int64_t end = NowNs();
    trace_.EndOp(end, put.ok(), false);
    ++stats->attempted;
    if (!put.ok()) {
      if (stats->errors.size() < 8) {
        stats->errors.push_back("Put " + key + ": " + put.status().ToString());
      }
      return;
    }
    if (put->timestamp == Timestamp::Zero() && stats->errors.size() < 8) {
      stats->errors.push_back("Put " + key + " acked without a timestamp");
    }
    ++stats->completed;
    if (window >= 0) {
      stats->put_us.Add(window, NsToUs(end - start));
      ++stats->completed_in[std::min<size_t>(window,
                                             stats->completed_in.size() - 1)];
    }
  }

  // Outside the op span: time the public SelectTarget on this client's own
  // monitor, and the public codec on the Get just captured.
  void ShadowTimings(const core::Session& session, const std::string& key,
                     WindowStats* stats) {
    const core::Sla sla = core::ShoppingCartSla();
    const MicrosecondCount now_us = pileus::RealClock::Instance()->NowMicros();
    int64_t start = NowNs();
    const core::SelectionResult selected = core::SelectTarget(
        sla, replica_views_, session, key, now_us, client_->monitor(),
        client_->options().selection, &rng_);
    stats->select_us.Add(NsToUs(NowNs() - start));
    (void)selected;
    if (!trace_.captured_request || !trace_.captured_reply) {
      return;
    }
    const proto::Message request = *trace_.captured_request;
    const proto::Message reply = *trace_.captured_reply;
    trace_.captured_request.reset();
    trace_.captured_reply.reset();
    start = NowNs();
    const std::string request_bytes = proto::EncodeMessage(request);
    const bool request_ok = proto::DecodeMessage(request_bytes).ok();
    const std::string reply_bytes = proto::EncodeMessage(reply);
    const bool reply_ok = proto::DecodeMessage(reply_bytes).ok();
    stats->codec_us.Add(NsToUs(NowNs() - start));
    stats->reply_bytes.Add(static_cast<double>(reply_bytes.size()));
    if ((!request_ok || !reply_ok) && stats->errors.size() < 8) {
      stats->errors.push_back("codec round trip failed for a captured Get");
    }
  }

  const uint8_t id_;
  const WorkloadSpec spec_;
  pileus::Random rng_;
  ClientTrace trace_;
  std::unique_ptr<pileus::cache::ClientCache> cache_;
  std::unique_ptr<core::PileusClient> client_;
  std::vector<core::ReplicaView> replica_views_;
  std::unique_ptr<workload::YcsbWorkload> workload_;
  std::optional<core::Session> session_;
  uint64_t get_counter_ = 0;
};

// Preloads every key through client Puts, kPreloadClients at a time so the
// group committer batches them. Returns the highest assigned timestamp.
Result<Timestamp> Preload(const Stack& stack) {
  std::vector<std::thread> threads;
  std::vector<Status> statuses(kPreloadClients, Status::Ok());
  std::vector<Timestamp> highs(kPreloadClients, Timestamp::Zero());
  for (int p = 0; p < kPreloadClients; ++p) {
    threads.emplace_back([&, p] {
      core::TableView view;
      view.table_name = kTable;
      view.replicas = {
          core::Replica{kPrimaryName, true, Connect(stack.primary_port())}};
      view.primary_index = 0;
      core::PileusClient client(std::move(view),
                                pileus::RealClock::Instance());
      Result<core::Session> session =
          client.BeginSession(core::ShoppingCartSla());
      for (int i = p; i < kKeyCount && session.ok(); i += kPreloadClients) {
        const std::string key =
            workload::YcsbWorkload::KeyForIndex(static_cast<uint64_t>(i));
        Result<core::PutResult> put = client.Put(
            *session, key,
            MakeValue(key, kPreloadWriter, static_cast<uint64_t>(i)));
        if (!put.ok()) {
          statuses[p] = put.status();
          return;
        }
        highs[p] = std::max(highs[p], put->timestamp);
      }
    });
  }
  Timestamp high = Timestamp::Zero();
  for (int p = 0; p < kPreloadClients; ++p) {
    threads[p].join();
    PILEUS_RETURN_IF_ERROR(statuses[p]);
    high = std::max(high, highs[p]);
  }
  return high;
}

// One set-up: stack, preload, replicated catch-up, clients, warm-up.
struct Deployment {
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<BenchClient>> clients;
  uint64_t preload_user_bytes = 0;
  uint64_t preload_wal_bytes = 0;
};

Status SetUp(const std::string& directory, const WorkloadSpec& spec,
             uint64_t seed, WindowObserver* observer, Deployment* out) {
  out->stack = std::make_unique<Stack>();
  PILEUS_RETURN_IF_ERROR(out->stack->Start(directory));
  Result<Timestamp> high = Preload(*out->stack);
  if (!high.ok()) {
    return high.status();
  }
  PILEUS_RETURN_IF_ERROR(out->stack->service().SyncNow());
  out->preload_wal_bytes = out->stack->WalBytes();
  for (int i = 0; i < kKeyCount; ++i) {
    out->preload_user_bytes +=
        workload::YcsbWorkload::KeyForIndex(static_cast<uint64_t>(i)).size() +
        kValueBytes;
  }
  if (!out->stack->WaitForSecondary(*high,
                                    pileus::SecondsToMicroseconds(30))) {
    return Status(StatusCode::kTimeout,
                  "secondary never caught up with the preload");
  }
  pileus::Random seeds(seed);
  for (int c = 0; c < kClients; ++c) {
    out->clients.push_back(std::make_unique<BenchClient>(
        static_cast<uint8_t>(c), spec, seeds.NextUint64(), *out->stack,
        observer));
  }
  std::vector<Status> statuses(kClients, Status::Ok());
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(
        [&, c] { statuses[c] = out->clients[c]->WarmUp(); });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const Status& s : statuses) {
    PILEUS_RETURN_IF_ERROR(s);
  }
  return Status::Ok();
}

void TearDown(Deployment* deployment) {
  deployment->clients.clear();
  deployment->stack.reset();
}

double CpuSeconds();

// The CPU time of a fixed unit of work: 8192 steps along a random cycle
// through a 32 KiB table, with a data-dependent branch at each step. Like
// the client library's code it is bound by load latency and mispredicted
// branches; a vectorisable scan tracked the program's speed less closely.
// Timed on the thread's own CPU clock, it leaves out steal and preemption
// and reads how fast this machine runs such code at this moment (see
// MedianRelative). It never calls into the program, so a change to the
// program cannot move it.
double MachineProbeUs() {
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> order(8192);
    for (uint32_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    pileus::Random rng(1);
    for (size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextUint64() % (i + 1)]);
    }
    std::vector<uint32_t> successor(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      successor[order[i]] = order[(i + 1) % order.size()];
    }
    return successor;
  }();
  static std::atomic<uint64_t> sink{0};  // Keeps the walk from being elided.
  timespec start{};
  timespec end{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &start);
  uint32_t at = 0;
  uint64_t acc = 0;
  for (size_t step = 0; step < next.size(); ++step) {
    at = next[at];
    if (((at ^ acc) & 1) != 0) {
      acc += uint64_t{at} * 2654435761u;
    } else {
      acc ^= at >> 3;
    }
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &end);
  sink.fetch_add(acc, std::memory_order_relaxed);
  return static_cast<double>(end.tv_sec - start.tv_sec) * 1e6 +
         static_cast<double>(end.tv_nsec - start.tv_nsec) / 1e3;
}

size_t SubWindows(double seconds) {
  return std::max<size_t>(1, static_cast<size_t>(seconds * 1e9 / kSubWindowNs));
}

// Runs both clients for `seconds` in sub-windows of kSubWindowNs and merges
// the results. With `lone_puts` (read_only's write-path probe) client 0 issues
// sequential Puts while client 1 keeps up its read-only loop unmeasured, so
// the Puts meet a busy read path rather than an idle machine. The calling
// thread runs the machine probe every kProbeEveryNs and samples process CPU
// time and machine steal at every sub-window boundary.
WindowStats RunWindow(Deployment& d, double seconds, bool traced,
                      bool lone_puts) {
  using Role = BenchClient::Role;
  const size_t windows = SubWindows(seconds);
  std::vector<WindowStats> per_client(d.clients.size());
  std::vector<std::thread> threads;
  const int64_t sub_ns =
      static_cast<int64_t>(seconds * 1e9) / static_cast<int64_t>(windows);
  const int64_t start_ns = NowNs();
  for (size_t c = 0; c < d.clients.size(); ++c) {
    const Role role = !lone_puts ? Role::kWorkload
                      : c == 0   ? Role::kLonePuts
                                 : Role::kBackgroundReads;
    threads.emplace_back([&, c, role] {
      per_client[c] =
          d.clients[c]->RunWindow(start_ns, sub_ns, windows, traced, role);
    });
  }
  WindowStats merged(windows);
  double cpu_before = CpuSeconds();
  CpuTimes machine_before = ReadProcStatCpu();
  for (size_t k = 1; k <= windows; ++k) {
    const int64_t boundary = start_ns + sub_ns * static_cast<int64_t>(k);
    std::vector<double> probes;
    for (int64_t now = NowNs(); now < boundary; now = NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(boundary - now, kProbeEveryNs)));
      if (NowNs() + kProbeEveryNs / 4 < boundary) {
        probes.push_back(MachineProbeUs());
      }
    }
    merged.probe_us_in.push_back(Median(probes));
    const double cpu = CpuSeconds();
    const CpuTimes machine = ReadProcStatCpu();
    merged.cpu_s_in.push_back(cpu - cpu_before);
    merged.steal_in.push_back(StealFraction(machine_before, machine));
    cpu_before = cpu;
    machine_before = machine;
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const WindowStats& w : per_client) {
    merged.Merge(w);
  }
  return merged;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Heap bytes the process holds (allocated and not freed), in MB.
double HeapInUseMb() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

// fdatasync latency of the data directory's filesystem (context only).
Percentile FdatasyncProbe(const std::string& directory, Percentile* p99) {
  Sample sample;
  const std::string path = directory + "/fdatasync.probe";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    const std::string record(128, 'f');
    for (int i = 0; i < 64; ++i) {
      if (::write(fd, record.data(), record.size()) < 0) {
        break;
      }
      const int64_t start = NowNs();
      if (::fdatasync(fd) != 0) {
        break;
      }
      sample.Add(NsToUs(NowNs() - start));
    }
    ::close(fd);
    ::unlink(path.c_str());
  }
  *p99 = sample.At(0.99);
  return sample.At(0.5);
}

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string name = argv[i];
    const std::string value = argv[i + 1];
    if (name == "--workload") {
      flags->workload = value;
    } else if (name == "--seed") {
      flags->seed = std::stoull(value);
    } else if (name == "--seconds") {
      flags->seconds = std::stod(value);
    } else if (name == "--trace") {
      flags->trace = value == "1";
    } else if (name == "--data_dir") {
      flags->data_dir = value;
    } else if (name == "--trace_out") {
      flags->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !flags->workload.empty() &&
         !flags->data_dir.empty() && flags->seconds > 0;
}

// Accumulates metrics and correctness failures, and prints the result.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
    std::cout << MetricLine(metrics_.back()) << "\n";
  }
  void AddPercentile(const std::string& name, const Percentile& p,
                     const std::string& unit) {
    metrics_.push_back(Metric{name, p.value, unit});
    std::cout << MetricLine(metrics_.back(), p) << "\n";
  }
  // Printed, with its support for a percentile, but not in the result.
  void Note(const std::string& name, double value, const std::string& unit) {
    std::cout << "not gated: " << MetricLine(Metric{name, value, unit})
              << "\n";
  }
  void Note(const std::string& name, const Percentile& p,
            const std::string& unit) {
    std::cout << "not gated: " << MetricLine(Metric{name, p.value, unit}, p)
              << "\n";
  }
  void Fail(const std::string& why) {
    correct_ = false;
    std::cout << "CORRECTNESS FAILURE: " << why << "\n";
  }
  void Check(const Reconciliation& r) {
    std::cout << (r.ok ? "reconcile ok: " : "reconcile FAILED: ") << r.detail
              << "\n";
    if (!r.ok) {
      Fail("per-layer reconciliation: " + r.detail);
    }
  }
  void AddErrors(const std::vector<std::string>& errors) {
    for (const std::string& e : errors) {
      Fail(e);
    }
  }

  int Finish(uint64_t attempted, uint64_t failed) {
    const std::string json = ResultJson(correct_, std::max<uint64_t>(attempted, 1),
                                        failed, metrics_);
    if (json.empty()) {
      std::cout << "internal error: a metric broke the result format\n";
      return 2;
    }
    std::cout << json << std::endl;
    return correct_ ? 0 : 1;
  }

 private:
  bool correct_ = true;
  std::vector<Metric> metrics_;
};

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

int Run(const Flags& flags) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (flags.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::cerr << "unknown workload '" << flags.workload << "'\n";
    return 2;
  }
  std::filesystem::remove_all(flags.data_dir);
  std::filesystem::create_directories(flags.data_dir);
  Report report;

  Percentile sync_p99;
  const Percentile sync_p50 = FdatasyncProbe(flags.data_dir, &sync_p99);

  // --- Set-up, repeated; the last deployment is measured. ---
  WindowObserver observer;
  Deployment deployment;
  std::vector<double> setup_s;
  const int repeats = flags.trace ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    if (r > 0) {
      TearDown(&deployment);
      std::filesystem::remove_all(flags.data_dir + "/setup-" +
                                  std::to_string(r - 1));
    }
    std::fill(g_issued.begin(), g_issued.end(), 0);
    const int64_t start = NowNs();
    Status status =
        SetUp(flags.data_dir + "/setup-" + std::to_string(r), *spec,
              flags.seed, flags.trace ? &observer : nullptr, &deployment);
    if (!status.ok()) {
      std::cerr << "set-up failed: " << status << "\n";
      return 2;
    }
    setup_s.push_back(NsToS(NowNs() - start));
  }
  // Memory is taken when set-up ends, after a fixed amount of work, as the
  // heap the deployment holds. Over the timed window it grows with every
  // write the update logs keep, i.e. with throughput, so a faster system
  // would read as a worse one. Resident memory also counts free pages the
  // allocator keeps, which vary from run to run.
  const double setup_heap_mb = HeapInUseMb();
  const double setup_peak_rss_mb = PeakRssMb();
  size_t window_samples = SIZE_MAX;
  for (auto& c : deployment.clients) {
    window_samples = std::min(window_samples, c->MinWindowSamples());
  }

  std::cout << "context {\"workload\": " << Quote(spec->name)
            << ", \"seed\": " << flags.seed
            << ", \"seconds\": " << flags.seconds
            << ", \"trace\": " << (flags.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << Quote(__VERSION__)
            << ", \"clients\": " << kClients
            << ", \"keys\": " << kKeyCount
            << ", \"value_bytes\": " << kValueBytes
            << ", \"zipf_theta\": " << kZipfTheta
            << ", \"ops_per_session\": " << kOpsPerSession
            << ", \"group_commit_batch\": " << kGroupCommitBatch
            << ", \"group_commit_delay_us\": " << kGroupCommitDelayUs
            << ", \"flush\": \"fdatasync per group commit\""
            << ", \"pull_period_ms\": " << kPullPeriodUs / 1000
            << ", \"fdatasync_p50_us\": " << FormatNumber(sync_p50.value)
            << ", \"fdatasync_p99_us\": " << FormatNumber(sync_p99.value)
            << ", \"window_samples\": " << window_samples
            << ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::cout << (i ? ", " : "") << FormatNumber(setup_s[i]);
  }
  std::cout << "]}\n";

  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto account = [&](const WindowStats& w) {
    attempted += w.attempted;
    failed += w.attempted - w.completed;
    report.AddErrors(w.errors);
  };

  // --- Untraced window: the end-to-end numbers. The gated latency and CPU
  // figures are relative to the machine probe (MedianRelative) over the
  // sub-windows without CPU steal (QuietWindows); the raw figures are
  // printed beside them. read_only's Put figures come from its
  // lone-Put probe. ---
  const CpuTimes cpu_before = ReadProcStatCpu();
  const WindowStats untraced =
      RunWindow(deployment, flags.seconds, false, false);
  const double steal = StealFraction(cpu_before, ReadProcStatCpu());
  account(untraced);
  const double ops_per_s =
      static_cast<double>(untraced.completed) / flags.seconds;

  if (!flags.trace) {
    WindowStats puts = untraced;
    if (spec->lone_put_probe) {
      puts = RunWindow(deployment, flags.seconds, false, true);
      account(puts);
    }
    const double sub_s = static_cast<double>(kSubWindowNs) / 1e9;
    const std::vector<double> get_p50_in = untraced.get_us.PerWindow(0.5);
    std::vector<double> cpu_us_per_op_in;
    double cpu_s = 0.0;
    uint64_t completed = 0;
    for (size_t k = 0; k < untraced.completed_in.size(); ++k) {
      const uint64_t ops = untraced.completed_in[k];
      cpu_us_per_op_in.push_back(ops == 0 ? 0.0
                                          : untraced.cpu_s_in[k] * 1e6 /
                                                static_cast<double>(ops));
      cpu_s += untraced.cpu_s_in[k];
      completed += ops;
      std::printf(
          "sub-window %zu: ops_per_s %.0f get p50 %.1f us cpu_us_per_op %.1f "
          "probe %.2f us steal %.3f\n",
          k, static_cast<double>(ops) / sub_s, get_p50_in[k],
          cpu_us_per_op_in.back(), untraced.probe_us_in[k],
          untraced.steal_in[k]);
    }
    std::fflush(stdout);
    std::cout << "failed_frac "
              << FormatNumber(static_cast<double>(failed) /
                              static_cast<double>(std::max<uint64_t>(
                                  attempted, 1)))
              << " (" << failed << " of " << attempted << " ops)\n"
              << "steal_frac " << FormatNumber(steal) << "\n";
    const std::vector<size_t> quiet = QuietWindows(
        untraced.steal_in, std::max<size_t>(1, untraced.steal_in.size() / 10));
    std::cout << "quiet_windows " << quiet.size() << " of "
              << untraced.steal_in.size() << "\n";
    report.Add("get_p50_probes",
               MedianRelative(get_p50_in, untraced.probe_us_in, quiet),
               "probes");
    report.Add("cpu_per_op_probes",
               MedianRelative(cpu_us_per_op_in, untraced.probe_us_in, quiet),
               "probes");
    // Printed but left out of the result. The raw times follow the speed of
    // the shared machine, which swung by up to 2x between seconds; the
    // throughput, Put latency and the tails also wait on wake-ups of several
    // threads and on fsync. Between runs of one commit they spread wider
    // than any bound worth gating on.
    report.Note("probe_us", Median(untraced.probe_us_in), "us");
    report.Note("get_p50_us", untraced.get_us.Pooled(0.5), "us");
    report.Note("cpu_us_per_op",
                cpu_s * 1e6 / static_cast<double>(std::max<uint64_t>(
                                  completed, 1)),
                "us");
    report.Note("ops_per_s", ops_per_s, "1/s");
    report.Note("put_p50_us", puts.put_us.Pooled(0.5), "us");
    report.Note("get_p99_us", untraced.get_us.Pooled(0.99), "us");
    report.Note("put_p99_us", puts.put_us.Pooled(0.99), "us");
    report.Add("sla_utility_mean", untraced.utility.MeanUtility(), "utility");
    report.Add("setup_s", Median(setup_s), "s");
    std::cout << "peak_rss_mb " << FormatNumber(setup_peak_rss_mb)
              << " MB at the end of set-up, " << FormatNumber(PeakRssMb())
              << " MB at the end of the run\n";
    report.Add("setup_heap_mb", setup_heap_mb, "MB");
    TearDown(&deployment);
    std::filesystem::remove_all(flags.data_dir);
    return report.Finish(attempted, failed);
  }

  // --- Traced window: the per-layer split. ---
  persist::GroupCommitter* committer =
      deployment.stack->service().group_committer();
  const uint64_t syncs_before = committer->syncs();
  const uint64_t acked_before = committer->acked();
  std::vector<uint64_t> cache_evictions_before;
  for (auto& c : deployment.clients) {
    cache_evictions_before.push_back(
        c->cache() == nullptr ? 0 : c->cache()->Stats().evictions);
  }
  std::atomic<bool> sampling{true};
  Sample lag_ms;
  std::thread lag_sampler([&] {
    while (sampling.load()) {
      const Timestamp primary = deployment.stack->PrimaryHigh();
      const Timestamp secondary = deployment.stack->SecondaryHigh();
      lag_ms.Add(static_cast<double>(primary.physical_us -
                                     secondary.physical_us) /
                 1000.0);
      std::this_thread::sleep_for(std::chrono::microseconds(kLagSampleUs));
    }
  });
  observer.on = true;
  g_server_trace.on = true;
  const CpuTimes traced_cpu_before = ReadProcStatCpu();
  WindowStats traced = RunWindow(deployment, flags.seconds, true, false);
  const double traced_steal = StealFraction(traced_cpu_before, ReadProcStatCpu());
  account(traced);
  // On read_only the write path is exercised only by the lone-Put probe, so
  // the group-commit counters span it too.
  double persist_elapsed = flags.seconds;
  if (spec->lone_put_probe) {
    account(RunWindow(deployment, flags.seconds, true, true));
    persist_elapsed += flags.seconds;
  }
  const uint64_t syncs = committer->syncs() - syncs_before;
  const uint64_t acked = committer->acked() - acked_before;
  g_server_trace.on = false;
  observer.on = false;
  sampling = false;
  lag_sampler.join();
  const double traced_ops_per_s =
      static_cast<double>(traced.completed) / flags.seconds;

  // Split every client op span into self time and connection-call time.
  Sample get_op_us, get_self_us, get_calls_us, put_op_us, put_self_us,
      put_calls_us;
  Sample get_call_us, put_call_us;
  std::map<std::pair<uint8_t, proto::MessageType>, Sample> call_us_by_node;
  uint64_t call_failures = 0;
  uint64_t unnested = 0;
  for (auto& c : deployment.clients) {
    const ClientTrace& t = c->trace();
    for (const auto& call : t.calls) {
      call_failures += call.ok ? 0 : 1;
      const double us = NsToUs(call.span.duration_ns());
      call_us_by_node[{call.node, call.type}].Add(us);
      if (call.type == proto::MessageType::kGetRequest) {
        get_call_us.Add(us);
      } else if (call.type == proto::MessageType::kPutRequest) {
        put_call_us.Add(us);
      }
    }
    for (const auto& op : t.ops) {
      std::vector<Interval> children;
      for (uint32_t i = 0; i < op.call_count; ++i) {
        children.push_back(t.calls[op.first_call + i].span);
      }
      const OpSplit split = SplitOp(op.span, children);
      unnested += split.nested ? 0 : 1;
      if (op.type == OpType::kGet) {
        get_op_us.Add(split.op_us);
        get_self_us.Add(split.self_us);
        get_calls_us.Add(split.call_us);
      } else {
        put_op_us.Add(split.op_us);
        put_self_us.Add(split.self_us);
        put_calls_us.Add(split.call_us);
      }
    }
  }
  if (unnested > 0) {
    report.Fail(std::to_string(unnested) +
                " op spans whose connection calls are not nested in them");
  }
  report.Check(Reconcile("Get", get_op_us.Mean(), get_self_us.Mean(),
                         get_calls_us.Mean()));
  report.Check(Reconcile("Put", put_op_us.Mean(), put_self_us.Mean(),
                         put_calls_us.Mean()));

  // Server handler vs client call, per (server, request type), and transit.
  const auto transit = [&](proto::MessageType type) {
    double weighted = 0.0;
    double calls = 0.0;
    for (uint8_t node : {uint8_t{0}, uint8_t{1}}) {
      auto it = call_us_by_node.find({node, type});
      if (it == call_us_by_node.end() || it->second.count() == 0) {
        continue;
      }
      const Sample handler = g_server_trace.Handler(
          node == 0 ? ServerTrace::kPrimary : ServerTrace::kSecondary, type);
      const std::string what = std::string(node == 0 ? "primary " : "secondary ") +
                               std::string(proto::MessageTypeName(type));
      report.Check(CheckHandlerWithinCall(what, handler.Mean(),
                                          it->second.Mean()));
      const double n = static_cast<double>(it->second.count());
      weighted += n * (it->second.Mean() - handler.Mean());
      calls += n;
    }
    return calls == 0 ? 0.0 : weighted / calls;
  };
  const double get_transit = transit(proto::MessageType::kGetRequest);
  const double put_transit = transit(proto::MessageType::kPutRequest);

  // Audit the traced window's history against the primary's commit order.
  deployment.stack->StopSecondary();
  if (!deployment.stack->service().SyncNow().ok()) {
    report.Fail("final group-commit sync failed");
  }
  // A checkpoint truncates the primary's log; the checker then skips the
  // checks that need every committed version. (Export before reading
  // `contiguous`: function arguments are evaluated in no fixed order.)
  bool contiguous = true;
  std::vector<proto::ObjectVersion> committed =
      deployment.stack->durable().tablet().ExportCommittedVersions(&contiguous);
  observer.recorder.SetGroundTruth(std::move(committed), contiguous);
  const pileus::audit::AuditReport audit =
      pileus::audit::ConsistencyChecker().Check(observer.recorder.Snapshot());
  std::cout << "audit: " << audit.reads_checked << " reads, "
            << audit.writes_checked << " writes, " << audit.violations.size()
            << " violations"
            << (contiguous ? "" : " (log compacted by a checkpoint: commit-"
                                  "order checks skipped)")
            << "\n";
  for (size_t i = 0; i < audit.violations.size() && i < 8; ++i) {
    report.Fail("audit violation: " + audit.violations[i].message);
  }

  uint64_t evictions = 0;
  for (size_t i = 0; i < deployment.clients.size(); ++i) {
    auto* cache = deployment.clients[i]->cache();
    if (cache != nullptr) {
      evictions += cache->Stats().evictions - cache_evictions_before[i];
    }
  }
  const uint64_t traced_gets = traced.utility.attempted();
  const Sample primary_get = g_server_trace.Handler(
      ServerTrace::kPrimary, proto::MessageType::kGetRequest);
  const Sample primary_put = g_server_trace.Handler(
      ServerTrace::kPrimary, proto::MessageType::kPutRequest);
  const Sample secondary_get = g_server_trace.Handler(
      ServerTrace::kSecondary, proto::MessageType::kGetRequest);
  const auto frac = [](uint64_t part, uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };

  report.Add("core.get_self_us", get_self_us.Mean(), "us");
  report.Add("core.select_us", traced.select_us.Mean(), "us");
  report.Add("core.put_self_us", put_self_us.Mean(), "us");
  report.Add("core.messages_per_op",
             frac(traced.messages, std::max<uint64_t>(traced.attempted, 1)),
             "count");
  report.Add("core.secondary_read_frac",
             frac(traced.secondary_gets, traced.network_gets), "frac");
  report.Add("core.rank0_frac", traced.utility.Rank0Fraction(), "frac");
  report.Add("core.window_samples", static_cast<double>(window_samples),
             "count");
  report.Add("cache.hit_frac", frac(traced.cache_gets, traced_gets), "frac");
  report.Add("cache.evictions", static_cast<double>(evictions), "count");
  report.AddPercentile("net.get_call_p50_us", get_call_us.At(0.5), "us");
  report.AddPercentile("net.get_call_p99_us", get_call_us.At(0.99), "us");
  report.AddPercentile("net.put_call_p50_us", put_call_us.At(0.5), "us");
  report.AddPercentile("net.put_call_p99_us", put_call_us.At(0.99), "us");
  report.Add("net.get_transit_us", get_transit, "us");
  report.Add("net.put_transit_us", put_transit, "us");
  report.Add("net.call_failures", static_cast<double>(call_failures), "count");
  report.Add("proto.get_codec_us", traced.codec_us.Mean(), "us");
  report.Add("proto.get_reply_bytes", traced.reply_bytes.Mean(), "B");
  report.AddPercentile("storage.secondary_handle_p50_us",
                       secondary_get.At(0.5), "us");
  report.AddPercentile("storage.secondary_handle_p99_us",
                       secondary_get.At(0.99), "us");
  report.AddPercentile("persist.get_handle_p50_us", primary_get.At(0.5), "us");
  report.AddPercentile("persist.get_handle_p99_us", primary_get.At(0.99), "us");
  report.AddPercentile("persist.put_handle_p50_us", primary_put.At(0.5), "us");
  report.AddPercentile("persist.put_handle_p99_us", primary_put.At(0.99), "us");
  report.Add("persist.acks_per_sync", frac(acked, syncs), "count");
  report.Add("persist.syncs_per_s", static_cast<double>(syncs) / persist_elapsed,
             "1/s");
  report.Add("persist.wal_bytes_per_user_byte",
             frac(deployment.preload_wal_bytes, deployment.preload_user_bytes),
             "B/B");
  report.Add("replication.pull_us", g_server_trace.pull_us().Mean(), "us");
  report.Add("replication.versions_per_pull",
             g_server_trace.pull_versions().Mean(), "count");
  report.Add("replication.lag_ms", lag_ms.Mean(), "ms");
  report.Add("bench.trace_overhead_frac", 1.0 - traced_ops_per_s / ops_per_s,
             "frac");
  report.Add("bench.steal_frac", traced_steal, "frac");

  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out);
    out << "kind,client,id,parent,node,type,start_ns,end_ns,ok,from_cache\n";
    for (size_t c = 0; c < deployment.clients.size(); ++c) {
      const ClientTrace& t = deployment.clients[c]->trace();
      for (size_t i = 0; i < t.ops.size(); ++i) {
        const auto& op = t.ops[i];
        out << "op," << c << "," << i << ",," << ","
            << (op.type == OpType::kGet ? "Get" : "Put") << ","
            << op.span.start_ns << "," << op.span.end_ns << "," << op.ok
            << "," << op.from_cache << "\n";
      }
      for (size_t i = 0; i < t.calls.size(); ++i) {
        const auto& call = t.calls[i];
        out << "call," << c << "," << i << ","
            << (call.op == ClientTrace::kNoOp ? std::string()
                                              : std::to_string(call.op))
            << "," << (call.node == 0 ? kPrimaryName : kSecondaryName) << ","
            << proto::MessageTypeName(call.type) << "," << call.span.start_ns
            << "," << call.span.end_ns << "," << call.ok << ",\n";
      }
    }
  }
  TearDown(&deployment);
  std::filesystem::remove_all(flags.data_dir);
  return report.Finish(attempted, failed);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, &flags)) {
    std::cerr << "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data_dir DIR [--trace_out FILE]\n";
    return 2;
  }
  return perfbench::Run(flags);
}
