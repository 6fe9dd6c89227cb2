// Unit tests for obs/trace: the fixed-capacity span ring, wraparound,
// the Chrome trace-event dump, and the enabled/disabled contract.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

namespace tcdp {
namespace obs {
namespace {

TraceEvent MakeEvent(const char* name, std::uint64_t start_ns,
                     std::uint64_t arg = 0) {
  TraceEvent event;
  event.name = name;
  event.category = "test";
  event.start_ns = start_ns;
  event.duration_ns = 10;
  event.thread_id = TraceThreadId();
  event.arg = arg;
  return event;
}

TEST(TraceRecorder, DisabledRecorderDropsEverything) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(MakeEvent("dropped", 100));
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceRecorder, RecordsUpToCapacity) {
  TraceRecorder recorder;
  recorder.Start(4);
  EXPECT_TRUE(recorder.enabled());
  EXPECT_EQ(recorder.capacity(), 4u);
  for (int i = 0; i < 3; ++i) {
    recorder.Record(MakeEvent("span", 100 + i, i));
  }
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.size(), 3u);
}

TEST(TraceRecorder, WraparoundKeepsNewestSpans) {
  TraceRecorder recorder;
  recorder.Start(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.Record(MakeEvent("wrap", 1000 + i, i));
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.size(), 4u);  // ring holds only the last capacity

  const std::string json = recorder.DumpJson();
  // Survivors are args 6..9; 0..5 were overwritten.
  for (std::uint64_t arg = 6; arg < 10; ++arg) {
    EXPECT_NE(json.find("\"arg\": " + std::to_string(arg)),
              std::string::npos)
        << json;
  }
  for (std::uint64_t arg = 0; arg < 6; ++arg) {
    EXPECT_EQ(json.find("\"arg\": " + std::to_string(arg) + "}"),
              std::string::npos)
        << json;
  }
  // Oldest-first: arg 6 renders before arg 9.
  EXPECT_LT(json.find("\"arg\": 6"), json.find("\"arg\": 9"));
}

TEST(TraceRecorder, RestartResetsTheRing) {
  TraceRecorder recorder;
  recorder.Start(2);
  recorder.Record(MakeEvent("first", 1));
  recorder.Stop();
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(MakeEvent("while_stopped", 2));
  EXPECT_EQ(recorder.recorded(), 1u);
  recorder.Start(8);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceRecorder, DumpJsonIsWellFormedWhenEmpty) {
  TraceRecorder recorder;
  recorder.Start(4);
  const std::string json = recorder.DumpJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("]"), std::string::npos);
}

TEST(TraceRecorder, ConcurrentWritersNeverTearTheCount) {
  TraceRecorder recorder;
  recorder.Start(64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorder] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record(MakeEvent("mt", 1 + i));
      }
    });
  }
  for (auto& worker : workers) worker.join();
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(recorder.size(), 64u);
  // The dump must stay parseable after heavy wrapping.
  const std::string json = recorder.DumpJson();
  EXPECT_NE(json.find("\"mt\""), std::string::npos);
}

TEST(TraceRecorder, DumpWhileWritingNeverRendersAMixedSpan) {
  // A tiny ring wraps constantly, so writers keep landing on slots the
  // dumper is copying. Every field of a span encodes its writer: a
  // rendered span that mixes two writers' fields is a torn read.
  TraceRecorder recorder;
  recorder.Start(8);
  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 1; t <= kThreads; ++t) {
    workers.emplace_back([&recorder, &stop, t] {
      TraceEvent event;
      event.name = "mixed";
      event.category = "test";
      event.start_ns = static_cast<std::uint64_t>(t) * 1000;
      event.duration_ns = static_cast<std::uint64_t>(t) * 1000;
      event.thread_id = static_cast<std::uint32_t>(t);
      event.arg = static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) recorder.Record(event);
    });
  }
  // Counts the spans a dump renders, failing on any mixed one.
  const auto check = [](const std::string& json) {
    int spans = 0;
    std::size_t at = 0;
    while ((at = json.find("\"ts\": ", at)) != std::string::npos) {
      double ts = 0.0;
      double dur = 0.0;
      unsigned tid = 0;
      unsigned long long arg = 0;
      EXPECT_EQ(std::sscanf(json.c_str() + at,
                            "\"ts\": %lf, \"dur\": %lf, \"pid\": 1, "
                            "\"tid\": %u, \"args\": {\"arg\": %llu}",
                            &ts, &dur, &tid, &arg),
                4)
          << json.substr(at, 120);
      EXPECT_EQ(ts, static_cast<double>(tid));
      EXPECT_EQ(dur, static_cast<double>(tid));
      EXPECT_EQ(arg, tid);
      ++spans;
      ++at;
    }
    return spans;
  };
  while (recorder.recorded() < 1000) std::this_thread::yield();
  for (int round = 0; round < 500; ++round) check(recorder.DumpJson());
  stop.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_GT(check(recorder.DumpJson()), 0);
}

TEST(TraceRecorder, StartIsSafeAgainstConcurrentRecord) {
  TraceRecorder recorder;
  recorder.Start(16);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&recorder, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        recorder.Record(MakeEvent("restart", 1));
      }
    });
  }
  for (std::size_t round = 0; round < 50; ++round) {
    recorder.Start(1 + round % 7);
    EXPECT_EQ(recorder.capacity(), 1 + round % 7);
  }
  stop.store(true);
  for (auto& worker : workers) worker.join();
  EXPECT_LE(recorder.size(), recorder.capacity());
  EXPECT_NE(recorder.DumpJson().find("\"traceEvents\""), std::string::npos);
}

TEST(TraceThreadIdTest, StablePerThreadAndDistinctAcrossThreads) {
  const std::uint32_t mine = TraceThreadId();
  EXPECT_EQ(TraceThreadId(), mine);
  std::uint32_t other = mine;
  std::thread worker([&other] { other = TraceThreadId(); });
  worker.join();
  EXPECT_NE(other, mine);
}

TEST(ScopedSpanTest, RecordsOnlyWhenDefaultTraceEnabled) {
  TraceRecorder& recorder = DefaultTrace();
  const bool was_enabled = recorder.enabled();
  recorder.Stop();
  {
    ScopedSpan span("obs_trace_test_disabled", "test");
  }
  recorder.Start(16);
  const std::uint64_t before = recorder.recorded();
  {
    ScopedSpan span("obs_trace_test_enabled", "test", 7);
  }
  EXPECT_EQ(recorder.recorded(), before + 1);
  const std::string json = recorder.DumpJson();
  EXPECT_NE(json.find("obs_trace_test_enabled"), std::string::npos);
  EXPECT_EQ(json.find("obs_trace_test_disabled"), std::string::npos);
  if (!was_enabled) recorder.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace tcdp
