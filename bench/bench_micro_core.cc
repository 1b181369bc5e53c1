// Microbenchmarks of the client library's hot paths: target selection
// (Figure 8), minimum-acceptable-read-timestamp computation, monitor updates
// and estimates, the wire codec and a synchronous TCP round trip. These run
// on every Get, so their cost bounds the client-side overhead Pileus adds
// over a plain key-value client. The group-commit benches time the
// primary's durable Put path, which every Put and read-my-writes Get waits
// on.

#include <benchmark/benchmark.h>
#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/random.h"
#include "src/core/monitor.h"
#include "src/core/selection.h"
#include "src/core/session.h"
#include "src/core/sla.h"
#include "src/net/tcp.h"
#include "src/persist/durable_service.h"
#include "src/persist/durable_tablet.h"
#include "src/proto/messages.h"

namespace {

using namespace pileus;        // NOLINT
using namespace pileus::core;  // NOLINT

// A warm client's latency window is full: Monitor's default cap.
constexpr int kFullWindow = 4096;

struct SelectionFixture {
  ManualClock clock;
  Monitor monitor;
  Session session;
  std::vector<ReplicaView> replicas;
  Sla sla;
  Random rng;

  explicit SelectionFixture(int replica_count)
      : clock(SecondsToMicroseconds(1000)),
        monitor(&clock),
        session(PasswordCheckingSla()),
        sla(PasswordCheckingSla()),
        rng(1) {
    for (int i = 0; i < replica_count; ++i) {
      ReplicaView view;
      view.name = "node-" + std::to_string(i);
      view.authoritative = (i == 0);
      replicas.push_back(view);
      // Populate monitor state: mixed latencies and staleness, with each
      // latency window filled to the cap as on a warm client.
      for (int s = 0; s < kFullWindow; ++s) {
        monitor.RecordLatency(view.name,
                              MillisecondsToMicroseconds(1 + 37 * i + s % 7));
      }
      monitor.RecordHighTimestamp(
          view.name, Timestamp{SecondsToMicroseconds(900 + i), 0});
    }
    session.RecordPut("key-1", Timestamp{SecondsToMicroseconds(950), 0});
    session.RecordGet("key-2", Timestamp{SecondsToMicroseconds(940), 0});
  }
};

void BM_SelectTarget(benchmark::State& state) {
  SelectionFixture fixture(static_cast<int>(state.range(0)));
  SelectionOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectTarget(
        fixture.sla, fixture.replicas, fixture.session, "key-1",
        fixture.clock.NowMicros(), fixture.monitor, options, &fixture.rng));
  }
}
BENCHMARK(BM_SelectTarget)->Arg(3)->Arg(8)->Arg(16);

void BM_MinReadTimestamp(benchmark::State& state) {
  SelectionFixture fixture(3);
  const Guarantee guarantees[] = {
      Guarantee::Strong(),       Guarantee::Causal(),
      Guarantee::BoundedSeconds(30), Guarantee::ReadMyWrites(),
      Guarantee::Monotonic(),    Guarantee::Eventual()};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.session.MinReadTimestamp(
        guarantees[i++ % 6], "key-1", fixture.clock.NowMicros()));
  }
}
BENCHMARK(BM_MinReadTimestamp);

void BM_MonitorRecordLatency(benchmark::State& state) {
  ManualClock clock(SecondsToMicroseconds(1000));
  Monitor monitor(&clock);
  int64_t i = 0;
  for (auto _ : state) {
    clock.AdvanceMicros(100);
    monitor.RecordLatency("node-0", 1000 + (i++ % 500));
  }
}
BENCHMARK(BM_MonitorRecordLatency);

// Every Record on a full window inserts into and evicts from the window's
// order index; latency-like values land at scattered positions in it.
void BM_MonitorRecordLatencyFullWindow(benchmark::State& state) {
  ManualClock clock(SecondsToMicroseconds(1000));
  Monitor monitor(&clock);
  Random rng(7);
  std::vector<MicrosecondCount> values(2 * kFullWindow);
  for (MicrosecondCount& value : values) {
    value = rng.NextBool(0.9) ? rng.NextInt64InRange(900, 1100)
                              : rng.NextInt64InRange(20000, 90000);
  }
  for (int i = 0; i < kFullWindow; ++i) {
    monitor.RecordLatency("node-0", values[i]);
  }
  size_t i = 0;
  for (auto _ : state) {
    clock.AdvanceMicros(100);
    monitor.RecordLatency("node-0", values[i++ % values.size()]);
  }
}
BENCHMARK(BM_MonitorRecordLatencyFullWindow);

void BM_MonitorPNodeLat(benchmark::State& state) {
  ManualClock clock(SecondsToMicroseconds(1000));
  Monitor monitor(&clock);
  for (int i = 0; i < kFullWindow; ++i) {
    monitor.RecordLatency("node-0", 1000 + i % 500);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        monitor.PNodeLat("node-0", MillisecondsToMicroseconds(1)));
  }
}
BENCHMARK(BM_MonitorPNodeLat);

void BM_EncodeDecodeGetReply(benchmark::State& state) {
  proto::GetReply reply;
  reply.found = true;
  reply.value.assign(100, 'v');
  reply.value_timestamp = Timestamp{123456789, 42};
  reply.high_timestamp = Timestamp{123456999, 7};
  const proto::Message message = reply;
  for (auto _ : state) {
    const std::string bytes = proto::EncodeMessage(message);
    benchmark::DoNotOptimize(proto::DecodeMessage(bytes));
  }
}
BENCHMARK(BM_EncodeDecodeGetReply);

void BM_EncodeDecodeSyncReply(benchmark::State& state) {
  proto::SyncReply reply;
  for (int i = 0; i < 100; ++i) {
    proto::ObjectVersion version;
    version.key = "user" + std::to_string(i);
    version.value.assign(100, 'v');
    version.timestamp = Timestamp{1000000 + i, 0};
    reply.versions.push_back(std::move(version));
  }
  reply.heartbeat = Timestamp{2000000, 0};
  const proto::Message message = reply;
  for (auto _ : state) {
    const std::string bytes = proto::EncodeMessage(message);
    benchmark::DoNotOptimize(proto::DecodeMessage(bytes));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_EncodeDecodeSyncReply);

proto::GetReply HundredByteGetReply() {
  proto::GetReply reply;
  reply.found = true;
  reply.value.assign(100, 'v');
  reply.value_timestamp = Timestamp{123456789, 42};
  reply.high_timestamp = Timestamp{123456999, 7};
  return reply;
}

// Length prefix, request id and message built in one buffer.
void BM_EncodeWireFrame(benchmark::State& state) {
  const proto::Message message = HundredByteGetReply();
  uint64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::EncodeWireFrame(++id, message));
  }
}
BENCHMARK(BM_EncodeWireFrame);

// The transport stage of a Get: a synchronous Call over loopback to a
// one-loop echo TcpServer answering with a 100-byte value. Wall time per
// round trip, both processes' halves on this machine.
void BM_TcpSyncCallRoundTrip(benchmark::State& state) {
  const proto::Message reply = HundredByteGetReply();
  net::TcpServer server;
  net::TcpServer::Options options;
  options.loop_threads = 1;
  const Status started = server.Start(
      0, [&reply](const proto::Message&) { return reply; }, options);
  if (!started.ok()) {
    state.SkipWithError(started.ToString().c_str());
    return;
  }
  net::TcpChannel channel(server.port());
  proto::GetRequest request;
  request.table = "t";
  request.key = "user42";
  for (auto _ : state) {
    Result<proto::Message> result =
        channel.Call(request, SecondsToMicroseconds(5));
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TcpSyncCallRoundTrip)->UseRealTime();

// A durable primary with group commit on, journaling to a fresh directory
// under /tmp: every timed Put goes through the node lock and the WAL append,
// and is acked only after a real fdatasync covers it.
class GroupCommitFixture {
 public:
  GroupCommitFixture() {
    char tmpl[] = "/tmp/pileus_bench_group_commit_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      return;
    }
    directory_ = tmpl;
    persist::DurableTablet::Options options;
    options.directory = directory_;
    options.tablet.is_primary = true;
    auto opened = persist::DurableTablet::Open(options, RealClock::Instance());
    if (!opened.ok()) {
      return;
    }
    tablet_ = std::move(opened).value();
    persist::GroupCommitConfig config;
    config.enabled = true;
    service_ = std::make_unique<persist::DurableStorageService>(
        "t", tablet_.get(), config);
  }
  ~GroupCommitFixture() {
    service_.reset();
    tablet_.reset();
    if (!directory_.empty()) {
      std::filesystem::remove_all(directory_);
    }
  }

  bool ok() const { return service_ != nullptr; }

  // One acked Put; false when the reply is not a PutReply.
  bool Put(const std::string& key) {
    proto::PutRequest put;
    put.table = "t";
    put.key = key;
    put.value = std::string(100, 'v');
    return std::holds_alternative<proto::PutReply>(service_->Handle(put));
  }

 private:
  std::string directory_;
  std::unique_ptr<persist::DurableTablet> tablet_;
  std::unique_ptr<persist::DurableStorageService> service_;
};

// Each benchmark thread is one synchronous writer. Thread 0 builds and tears
// down the shared primary; the benchmark's start and stop barriers order that
// against the other writers' loops. Wall time per acked Put per writer.
void RunGroupCommitWriters(benchmark::State& state) {
  static GroupCommitFixture* fixture = nullptr;
  if (state.thread_index() == 0) {
    fixture = new GroupCommitFixture();
  }
  const std::string key = "writer" + std::to_string(state.thread_index());
  for (auto _ : state) {
    if (!fixture->ok() || !fixture->Put(key)) {
      state.SkipWithError("durable Put failed");
      break;
    }
  }
  if (state.thread_index() == 0) {
    delete fixture;
    fixture = nullptr;
  }
}

// A lone writer: with nobody to batch with, each Put costs one fsync.
void BM_GroupCommitLoneAck(benchmark::State& state) {
  RunGroupCommitWriters(state);
}
BENCHMARK(BM_GroupCommitLoneAck)->UseRealTime();

// Eight writers: Puts that arrive during one fsync share the next.
void BM_GroupCommitConcurrentWriters(benchmark::State& state) {
  RunGroupCommitWriters(state);
}
BENCHMARK(BM_GroupCommitConcurrentWriters)->Threads(8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
