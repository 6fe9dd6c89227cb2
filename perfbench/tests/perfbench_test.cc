// Unit tests for the benchmark's own logic: percentiles and their
// sample counts, frame pre-encoding, failure counting, and the
// bitwise report comparator. Build and run:
//   cmake -S perfbench -B .bench_build/perfbench
//   cmake --build .bench_build/perfbench --target perfbench_test
//   (cd .bench_build/perfbench && ctest --output-on-failure)

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "check.h"
#include "net/messages.h"
#include "net/wire.h"
#include "served.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

void PercentileCountsSamplesBeyondTheRank() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  const Percentile p50 = PercentileOf(samples, 50);
  EXPECT(p50.value == 50.0);
  EXPECT(p50.samples == 100);
  EXPECT(p50.beyond == 50);
  const Percentile p90 = PercentileOf(samples, 90);
  EXPECT(p90.value == 90.0);
  EXPECT(p90.beyond == 10);
  EXPECT(p90.supported());
  // 99 samples leave only 9 beyond the p90 rank: not reportable.
  samples.pop_back();
  const Percentile short_p90 = PercentileOf(samples, 90);
  EXPECT(short_p90.beyond == 9);
  EXPECT(!short_p90.supported());
  EXPECT(PercentileOf({}, 50).samples == 0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void PreEncodedFramesRoundTripThroughTheDecoder() {
  auto workload = MakeWorkload("durable-churn", 7, 0.1);
  EXPECT(workload.ok());
  if (!workload.ok()) return;
  const EncodedFrames frames = EncodeOps(*workload, workload->load_block);
  EXPECT(frames.size() == workload->load_block.size());
  tcdp::net::FrameDecoder decoder(/*expect_preamble=*/false);
  // Feed in odd-sized pieces, as recv() might deliver them.
  for (std::size_t at = 0; at < frames.bytes.size(); at += 7) {
    const std::size_t n = std::min<std::size_t>(7, frames.bytes.size() - at);
    EXPECT(decoder.Feed(frames.bytes.data() + at, n).ok());
  }
  EXPECT(decoder.queued_frames() == workload->load_block.size());
  for (const Op& op : workload->load_block) {
    if (!decoder.has_frame()) break;
    const tcdp::net::Frame frame = decoder.PopFrame();
    const std::string& name = workload->names[op.user];
    switch (op.kind) {
      case OpKind::kRelease: {
        auto release = tcdp::net::DecodeRelease(frame.payload);
        EXPECT(frame.type == tcdp::net::MsgType::kRelease);
        EXPECT(release.ok() && release->name == name &&
               release->epsilon == op.epsilon);
        break;
      }
      case OpKind::kJoin: {
        auto join = tcdp::net::DecodeJoin(frame.payload);
        EXPECT(frame.type == tcdp::net::MsgType::kJoin);
        EXPECT(join.ok() && join->name == name);
        break;
      }
      case OpKind::kQuery: {
        auto query = tcdp::net::DecodeName(frame.payload);
        EXPECT(frame.type == tcdp::net::MsgType::kQuery);
        EXPECT(query.ok() && *query == name);
        break;
      }
      case OpKind::kFlush:
        EXPECT(frame.type == tcdp::net::MsgType::kFlush);
        break;
    }
  }
  EXPECT(!decoder.has_frame());
  EXPECT(decoder.buffered_bytes() == 0);
}

void WorkloadsAreDeterministicInTheSeed() {
  auto a = MakeWorkload("sparse-personal", 3, 0.1);
  auto b = MakeWorkload("sparse-personal", 3, 0.1);
  auto c = MakeWorkload("sparse-personal", 4, 0.1);
  EXPECT(a.ok() && b.ok() && c.ok());
  if (!a.ok() || !b.ok() || !c.ok()) return;
  EXPECT(EncodeOps(*a, a->load_block).bytes == EncodeOps(*b, b->load_block).bytes);
  EXPECT(EncodeOps(*a, a->load_block).bytes != EncodeOps(*c, c->load_block).bytes);
  // The cohort matrices are the same for every seed.
  EXPECT(a->matrices.size() == c->matrices.size());
  for (std::size_t m = 0; m < a->matrices.size() && m < c->matrices.size(); ++m) {
    EXPECT(tcdp::net::EncodeJoin("x", a->matrices[m]) ==
           tcdp::net::EncodeJoin("x", c->matrices[m]));
  }
  EXPECT(!MakeWorkload("no-such-workload", 1, 1.0).ok());
}

void FailuresAreCounted() {
  Tally tally;
  tcdp::net::Frame ok;
  ok.type = tcdp::net::MsgType::kOk;
  CountAck(ok, &tally);
  EXPECT(tally.failed == 0);
  tcdp::net::Frame error;
  error.type = tcdp::net::MsgType::kError;
  error.payload = tcdp::net::EncodeError(tcdp::Status::NotFound("user 'u9'"));
  CountAck(error, &tally);
  EXPECT(tally.failed == 1);
  EXPECT(tally.errors.size() == 1 &&
         tally.errors[0].find("user 'u9'") != std::string::npos);
  tcdp::net::Frame wrong;
  wrong.type = tcdp::net::MsgType::kReport;
  CountAck(wrong, &tally);
  EXPECT(tally.failed == 2);
}

void ComparatorCatchesAFlippedBit() {
  tcdp::server::UserReport reference;
  reference.name = "u1";
  reference.horizon = 3;
  reference.max_tpl = 0.75;
  reference.user_level_tpl = 0.3;
  reference.epsilons = {0.1, 0.0, 0.2};
  reference.tpl_series = {0.25, 0.5, 0.75};
  tcdp::server::UserReport served = reference;
  served.shard = 1;  // the shard index is not an accounting result
  EXPECT(DiffReports(served, reference).empty());

  auto flip_low_bit = [](double* value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, value, sizeof(bits));
    bits ^= 1;
    std::memcpy(value, &bits, sizeof(bits));
  };
  tcdp::server::UserReport flipped = reference;
  flip_low_bit(&flipped.tpl_series[1]);
  EXPECT(flipped.tpl_series[1] != reference.tpl_series[1]);
  const auto fields = DiffReports(flipped, reference);
  EXPECT(fields.size() == 1 && fields[0] == "tpl_series");

  flipped = reference;
  flip_low_bit(&flipped.max_tpl);
  EXPECT(DiffReports(flipped, reference) == std::vector<std::string>{"max_tpl"});

  const Reports want = {{1, reference}};
  EXPECT(CompareReports("q", {{1, served}}, want).empty());
  EXPECT(CompareReports("q", {{1, flipped}}, want).size() == 1);
  EXPECT(CompareReports("q", {}, want).size() == 1);  // missing answer
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::PercentileCountsSamplesBeyondTheRank();
  perfbench::PreEncodedFramesRoundTripThroughTheDecoder();
  perfbench::WorkloadsAreDeterministicInTheSeed();
  perfbench::FailuresAreCounted();
  perfbench::ComparatorCatchesAFlippedBit();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench_test: all expectations passed\n");
  return 0;
}
