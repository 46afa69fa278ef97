// daemon_test.cpp - the resident scheduling daemon: frame codec round
// trips and hostile-input rejection, the bounded-queue admission boundary,
// streaming vs input-order response parity (and parity with the
// --serve-batch front end), the batch front end's bounded window,
// stats-counter consistency under concurrent clients, graceful
// drain, the lock-light latency histogram against a sorted-vector oracle,
// the SOFTSCHED_INJECT fault plan (grammar + slot/shard/conn injection
// semantics), the --listen/--serve flag surface (serve/options.h), and the
// socket transports: stdio/tcp/unix response parity, hello negotiation,
// the --max-conns shed boundary, cross-connection dedup, and dead-client
// isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/daemon.h"
#include "serve/metrics.h"
#include "serve/options.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "serve/transport.h"
#include "util/check.h"
#include "util/json_parse.h"

namespace sv = softsched::serve;
using softsched::json_value;
using softsched::parse_json;
using softsched::precondition_error;

namespace {

/// Frames each line as the daemon's client would.
std::string framed(const std::vector<std::string>& lines) {
  std::ostringstream out;
  for (const std::string& l : lines) sv::write_frame(out, l);
  return std::move(out).str();
}

/// Decodes every frame in a daemon output stream.
std::vector<std::string> unframed(const std::string& wire) {
  std::istringstream in(wire);
  std::vector<std::string> payloads;
  for (;;) {
    const sv::frame_read f = sv::read_frame(in);
    if (f.status != sv::frame_status::ok) {
      EXPECT_EQ(f.status, sv::frame_status::eof) << f.error;
      break;
    }
    payloads.push_back(f.payload);
  }
  return payloads;
}

/// Drops the nondeterministic scheduling-latency field - the only part of
/// a response payload the determinism contract does not cover.
std::string strip_ms(const std::string& payload) {
  static const std::regex ms_field(",\"ms\":[0-9.eE+-]+");
  return std::regex_replace(payload, ms_field, "");
}

std::string render(const sv::response& r, bool emit_schedule = true) {
  std::ostringstream oss;
  sv::write_response_line(oss, r, emit_schedule);
  return std::move(oss).str();
}

/// Collects service callbacks thread-safely, indexed by arrival.
struct collector {
  std::mutex mutex;
  std::vector<sv::response> responses;

  sv::service::callback sink() {
    return [this](sv::response r) {
      const std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(std::move(r));
    };
  }
};

/// Exact nearest-rank percentile (the oracle the histogram approximates
/// from above; same definition as bench/load_scenario.h).
double exact_percentile(std::vector<double> sample, double p) {
  std::sort(sample.begin(), sample.end());
  if (sample.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sample.size())));
  return sample[rank > 0 ? rank - 1 : 0];
}

} // namespace

// -- frame codec ------------------------------------------------------------

TEST(FrameCodec, RoundTripsSimplePayload) {
  std::ostringstream out;
  sv::write_frame(out, R"({"id":"a","bench":"ewf"})");
  std::istringstream in(out.str());
  const sv::frame_read f = sv::read_frame(in);
  ASSERT_EQ(f.status, sv::frame_status::ok) << f.error;
  EXPECT_EQ(f.payload, R"({"id":"a","bench":"ewf"})");
  EXPECT_EQ(sv::read_frame(in).status, sv::frame_status::eof);
}

TEST(FrameCodec, RoundTripsEmbeddedNewlinesAndEmptyPayload) {
  // Counted framing is what lets a multi-line dfg upload cross the wire.
  const std::string multiline = "dfg t\nop a add\nop b add a\n";
  std::ostringstream out;
  sv::write_frame(out, multiline);
  sv::write_frame(out, "");
  sv::write_frame(out, "tail");
  std::istringstream in(out.str());
  sv::frame_read f = sv::read_frame(in);
  ASSERT_EQ(f.status, sv::frame_status::ok);
  EXPECT_EQ(f.payload, multiline);
  f = sv::read_frame(in);
  ASSERT_EQ(f.status, sv::frame_status::ok);
  EXPECT_EQ(f.payload, "");
  f = sv::read_frame(in);
  ASSERT_EQ(f.status, sv::frame_status::ok);
  EXPECT_EQ(f.payload, "tail");
  EXPECT_EQ(sv::read_frame(in).status, sv::frame_status::eof);
}

TEST(FrameCodec, SingleLinePayloadsKeepLineStructure) {
  // The shell contract: length lines and payload lines alternate, so
  // `awk 'NR%2==0'` recovers the payloads.
  std::ostringstream out;
  sv::write_frame(out, "one");
  sv::write_frame(out, "two");
  std::istringstream lines(out.str());
  std::vector<std::string> seen;
  for (std::string l; std::getline(lines, l);) seen.push_back(l);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], "3");
  EXPECT_EQ(seen[1], "one");
  EXPECT_EQ(seen[2], "3");
  EXPECT_EQ(seen[3], "two");
}

TEST(FrameCodec, TruncatedPayloadIsAnError) {
  std::istringstream in("10\nabc");
  const sv::frame_read f = sv::read_frame(in);
  EXPECT_EQ(f.status, sv::frame_status::error);
  EXPECT_NE(f.error.find("truncated"), std::string::npos) << f.error;
}

TEST(FrameCodec, OversizeLengthRejectedBeforeBuffering) {
  // A hostile length must be refused on its face - no attempt to allocate
  // or read the claimed payload (here the payload isn't even present).
  std::istringstream in("999999999999\n");
  const sv::frame_read f = sv::read_frame(in, sv::frame_limits{1 << 20});
  EXPECT_EQ(f.status, sv::frame_status::error);
  EXPECT_NE(f.error.find("exceeds"), std::string::npos) << f.error;

  // At the limit exactly, the frame is still legal.
  const std::string big(1 << 10, 'x');
  std::ostringstream out;
  sv::write_frame(out, big);
  std::istringstream ok_in(out.str());
  EXPECT_EQ(sv::read_frame(ok_in, sv::frame_limits{1 << 10}).status,
            sv::frame_status::ok);
}

TEST(FrameCodec, EofInsideLengthLineIsAnError) {
  std::istringstream in("12"); // digits, then EOF before '\n'
  const sv::frame_read f = sv::read_frame(in);
  EXPECT_EQ(f.status, sv::frame_status::error);
  EXPECT_NE(f.error.find("EOF"), std::string::npos) << f.error;
}

TEST(FrameCodec, MalformedLengthLineIsAnError) {
  for (const char* wire : {"abc\nxyz\n", "-3\nxyz\n", "3x\nxyz\n", "\nxyz\n",
                           "999999999999999999999999\nx\n"}) {
    std::istringstream in(wire);
    EXPECT_EQ(sv::read_frame(in).status, sv::frame_status::error) << wire;
  }
}

TEST(FrameCodec, MissingTerminatorIsAnError) {
  std::istringstream in("3\nabc"); // count consumed, payload read, no '\n'
  const sv::frame_read f = sv::read_frame(in);
  EXPECT_EQ(f.status, sv::frame_status::error);
  EXPECT_NE(f.error.find("terminator"), std::string::npos) << f.error;
}

// -- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, PercentileBracketsSortedVectorOracle) {
  // The pinned contract: percentile() never under-reports the exact order
  // statistic and overshoots it by at most one bucket ratio.
  sv::latency_histogram hist;
  std::vector<double> sample;
  std::uint64_t state = 88172645463325252ull; // xorshift: deterministic mix
  for (int i = 0; i < 2000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double ms = 0.01 * static_cast<double>(1 + state % 100000); // 10us..1s
    sample.push_back(ms);
    hist.record(ms);
  }
  EXPECT_EQ(hist.count(), 2000u);
  for (const double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
    const double exact = exact_percentile(sample, p);
    const double approx = hist.percentile(p);
    EXPECT_GE(approx, exact) << "p" << p;
    EXPECT_LE(approx, exact * (1 + sv::latency_histogram::relative_error()) + 1e-9)
        << "p" << p;
  }
}

TEST(LatencyHistogram, EdgeValuesStayInRange) {
  sv::latency_histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.percentile(99), 0.0); // empty: no invented latency

  hist.record(0);    // at/below the floor: bottom bucket
  hist.record(-5);   // negative input must not crash or wrap
  hist.record(1e12); // far beyond the range: top bucket
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_LE(hist.percentile(1), sv::latency_histogram::floor_ms);
  EXPECT_EQ(hist.percentile(100),
            sv::latency_histogram::bucket_upper_bound(
                sv::latency_histogram::bucket_count - 1));
}

TEST(LatencyHistogram, BucketMappingIsMonotoneAndCovering) {
  double prev_bound = 0;
  for (int b = 0; b < sv::latency_histogram::bucket_count; ++b) {
    const double bound = sv::latency_histogram::bucket_upper_bound(b);
    EXPECT_GT(bound, prev_bound);
    prev_bound = bound;
  }
  const double ceiling = sv::latency_histogram::bucket_upper_bound(
      sv::latency_histogram::bucket_count - 1);
  int prev_bucket = 0;
  for (double ms = 1e-4; ms < 1e6; ms *= 1.37) {
    const int b = sv::latency_histogram::bucket_of(ms);
    EXPECT_GE(b, prev_bucket) << ms; // monotone in the recorded value
    prev_bucket = b;
    if (ms <= ceiling) {
      // In range, the bucket's upper bound covers the value it was chosen
      // for; beyond the range everything clamps to the top bucket.
      EXPECT_GE(sv::latency_histogram::bucket_upper_bound(b) * (1 + 1e-12), ms);
    } else {
      EXPECT_EQ(b, sv::latency_histogram::bucket_count - 1) << ms;
    }
  }
}

// -- fault plan (SOFTSCHED_INJECT grammar) ----------------------------------

TEST(FaultPlan, ParsesSlotAndShardRules) {
  const sv::fault_plan plan =
      sv::fault_plan::parse("slot=0:delay_ms=5,shard=3:fail,slot=2:delay_ms=1.5:fail");
  ASSERT_EQ(plan.slots.size(), 2u);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.slots.at(0).delay_ms, 5);
  EXPECT_FALSE(plan.slots.at(0).fail);
  EXPECT_TRUE(plan.shards.at(3).fail);
  EXPECT_DOUBLE_EQ(plan.shards.at(3).delay_ms, 0);
  EXPECT_DOUBLE_EQ(plan.slots.at(2).delay_ms, 1.5);
  EXPECT_TRUE(plan.slots.at(2).fail);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(sv::fault_plan::parse("").empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)sv::fault_plan::parse("slot=0"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("cpu=1:fail"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("slot=x:fail"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("slot=0:boom"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("slot=0:delay_ms=-1"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("slot=0:delay_ms=abc"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("shard=:fail"), precondition_error);
}

TEST(FaultPlan, FromEnvReadsTheKnob) {
  ASSERT_EQ(setenv("SOFTSCHED_INJECT", "slot=1:fail", 1), 0);
  const sv::fault_plan plan = sv::fault_plan::from_env();
  EXPECT_TRUE(plan.slots.at(1).fail);
  ASSERT_EQ(unsetenv("SOFTSCHED_INJECT"), 0);
  EXPECT_TRUE(sv::fault_plan::from_env().empty());
}

// -- service core -----------------------------------------------------------

TEST(ServeService, AnswersASingleRequest) {
  sv::service_options opt;
  opt.jobs = 1;
  sv::service svc(opt);
  collector got;
  ASSERT_TRUE(svc.submit(1, R"({"id":"q","bench":"ewf"})", got.sink()));
  svc.drain();
  ASSERT_EQ(got.responses.size(), 1u);
  EXPECT_EQ(got.responses[0].id, "q");
  EXPECT_EQ(got.responses[0].line, 1u);
  EXPECT_TRUE(got.responses[0].error.empty()) << got.responses[0].error;
  EXPECT_TRUE(got.responses[0].result.feasible);
  EXPECT_GT(got.responses[0].result.latency, 0);
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServeService, ParseErrorsBecomeErrorResponses) {
  sv::service_options opt;
  opt.jobs = 1;
  sv::service svc(opt);
  collector got;
  ASSERT_TRUE(svc.submit(7, "not json", got.sink()));
  svc.drain();
  ASSERT_EQ(got.responses.size(), 1u);
  EXPECT_FALSE(got.responses[0].error.empty());
  EXPECT_EQ(got.responses[0].id, "line7"); // parse failed: synthesized id
  EXPECT_EQ(svc.stats().errors, 1u);
}

TEST(ServeService, AdmissionBoundaryShedsAtExactlyFullAndRecoversAfterDrain) {
  // jobs = 1 maps every request to worker slot 0; the injected delay holds
  // the queue full deterministically while we probe the boundary.
  sv::service_options opt;
  opt.jobs = 1;
  opt.queue_capacity = 2;
  opt.faults = sv::fault_plan::parse("slot=0:delay_ms=30");
  sv::service svc(opt);
  collector got;
  EXPECT_TRUE(svc.submit(1, R"({"bench":"ewf"})", got.sink())); // depth 1
  EXPECT_TRUE(svc.submit(2, R"({"bench":"ewf"})", got.sink())); // depth 2 = capacity
  EXPECT_FALSE(svc.submit(3, R"({"bench":"ewf"})", got.sink())); // full: shed
  EXPECT_FALSE(svc.submit(4, R"({"bench":"ewf"})", got.sink()));
  svc.drain();
  EXPECT_TRUE(svc.submit(5, R"({"bench":"ewf"})", got.sink())); // drained: accepts
  svc.drain();
  EXPECT_EQ(got.responses.size(), 3u); // shed requests never fire callbacks
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.overloaded, 2u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.peak_queue_depth, 2u); // bounded at capacity, never above
  EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServeService, OverloadedResponseCarriesRetryAfterHint) {
  sv::service_options opt;
  opt.jobs = 1;
  opt.retry_after_ms = 25;
  sv::service svc(opt);
  const sv::response shed = svc.overloaded_response(9);
  EXPECT_EQ(shed.error, "overloaded");
  EXPECT_EQ(shed.line, 9u);
  EXPECT_DOUBLE_EQ(shed.retry_after_ms, 25);
  const std::string wire = render(shed);
  EXPECT_NE(wire.find("\"error\":\"overloaded\""), std::string::npos) << wire;
  EXPECT_NE(wire.find("\"retry_after_ms\":25"), std::string::npos) << wire;
  // Ordinary responses never carry the hint.
  EXPECT_EQ(render(sv::response{}).find("retry_after_ms"), std::string::npos);
}

TEST(ServeService, ConcurrentIdenticalRequestsCoalesceOntoOneFlight) {
  // The leader registers its flight before the injected shard delay, so
  // the second identical request reliably arrives mid-flight and joins it.
  sv::service_options opt;
  opt.jobs = 2;
  opt.cache_shards = 1;
  opt.faults = sv::fault_plan::parse("shard=0:delay_ms=40");
  sv::service svc(opt);
  collector got;
  ASSERT_TRUE(svc.submit(1, R"({"id":"a","bench":"ewf"})", got.sink()));
  ASSERT_TRUE(svc.submit(2, R"({"id":"b","bench":"ewf"})", got.sink()));
  svc.drain();
  ASSERT_EQ(got.responses.size(), 2u);
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.deduped, 1u);
  EXPECT_EQ(got.responses[0].key, got.responses[1].key);
  EXPECT_TRUE(got.responses[0].result.same_schedule(got.responses[1].result));
}

TEST(ServeService, DedupFollowerSurvivesOversizeRejectedCacheInsert) {
  // Zero cache budget: every insert is rejected as oversize. The follower
  // must receive the leader's result from the flight itself - a cache
  // re-lookup would find nothing.
  sv::service_options opt;
  opt.jobs = 2;
  opt.cache_bytes = 0;
  opt.cache_shards = 1;
  opt.faults = sv::fault_plan::parse("shard=0:delay_ms=40");
  sv::service svc(opt);
  collector got;
  ASSERT_TRUE(svc.submit(1, R"({"id":"a","bench":"hal"})", got.sink()));
  ASSERT_TRUE(svc.submit(2, R"({"id":"b","bench":"hal"})", got.sink()));
  svc.drain();
  ASSERT_EQ(got.responses.size(), 2u);
  for (const sv::response& r : got.responses) {
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.result.feasible);
    EXPECT_FALSE(r.result.start_times.empty());
  }
  EXPECT_GE(svc.cache().counters().rejected_oversize, 1u);
  EXPECT_EQ(svc.stats().deduped, 1u);
}

TEST(ServeService, StatsStayConsistentUnderConcurrentClients) {
  sv::service_options opt;
  opt.jobs = 2;
  opt.queue_capacity = 8; // small enough that clients hit the boundary too
  sv::service svc(opt);
  const std::vector<std::string> mix = {
      R"({"bench":"ewf"})",        R"({"bench":"hal"})",
      R"({"bench":"fir16"})",      R"({"bench":"ewf","alus":3})",
      "garbage",                   R"({"bench":"nope"})",
  };
  std::atomic<std::uint64_t> callbacks{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&svc, &mix, &callbacks, c] {
      for (int i = 0; i < 50; ++i) {
        (void)svc.submit(static_cast<std::uint64_t>(c) * 1000 + i + 1,
                         mix[static_cast<std::size_t>(i) % mix.size()],
                         [&callbacks](sv::response) {
                           callbacks.fetch_add(1, std::memory_order_relaxed);
                         });
      }
    });
  }
  for (std::thread& t : clients) t.join();
  svc.drain();
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.submitted, 200u);
  EXPECT_EQ(s.submitted, s.admitted + s.overloaded);
  EXPECT_EQ(s.completed, s.admitted);
  EXPECT_EQ(callbacks.load(), s.admitted); // exactly once per admitted request
  // Every completed request lands in exactly one disposition bucket.
  EXPECT_EQ(s.errors + s.computed + s.cache_hits + s.deduped, s.completed);
  EXPECT_EQ(s.queue_depth, 0u);
  EXPECT_LE(s.peak_queue_depth, opt.queue_capacity);
  EXPECT_GT(s.qps, 0);
  EXPECT_GE(s.p99_ms, s.p50_ms);
}

TEST(ServeService, GracefulDrainCompletesEveryAdmittedRequest) {
  sv::service_options opt;
  opt.jobs = 1;
  opt.queue_capacity = 64;
  opt.faults = sv::fault_plan::parse("slot=0:delay_ms=1");
  sv::service svc(opt);
  std::atomic<std::uint64_t> fired{0};
  std::uint64_t admitted = 0;
  for (int i = 0; i < 20; ++i)
    if (svc.submit(static_cast<std::uint64_t>(i) + 1, R"({"bench":"fig1"})",
                   [&fired](sv::response) { fired.fetch_add(1); }))
      ++admitted;
  svc.drain();
  EXPECT_EQ(fired.load(), admitted); // drain returns only when all answered
  EXPECT_EQ(svc.stats().queue_depth, 0u);
  EXPECT_EQ(svc.stats().completed, admitted);
}

// -- injection semantics ----------------------------------------------------

TEST(ServeInjection, FailedSlotTurnsRequestsIntoInjectedErrors) {
  // jobs = 1: every request lands on slot 0, before parsing even runs.
  sv::service_options opt;
  opt.jobs = 1;
  opt.faults = sv::fault_plan::parse("slot=0:fail");
  sv::service svc(opt);
  collector got;
  ASSERT_TRUE(svc.submit(1, R"({"id":"q","bench":"ewf"})", got.sink()));
  ASSERT_TRUE(svc.submit(2, "not even json", got.sink()));
  svc.drain();
  ASSERT_EQ(got.responses.size(), 2u);
  for (const sv::response& r : got.responses)
    EXPECT_EQ(r.error, "injected fault: worker slot 0");
  EXPECT_EQ(svc.stats().errors, 2u);
  EXPECT_EQ(svc.stats().computed, 0u); // the fault preempts scheduling
}

TEST(ServeInjection, SlotDelayShowsUpInServiceLatency) {
  sv::service_options opt;
  opt.jobs = 1;
  opt.faults = sv::fault_plan::parse("slot=0:delay_ms=20");
  sv::service svc(opt);
  collector got;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(svc.submit(1, R"({"bench":"fig1"})", got.sink()));
  svc.drain();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(wall_ms, 20.0); // sleep_for guarantees at least the request
  ASSERT_EQ(got.responses.size(), 1u);
  EXPECT_TRUE(got.responses[0].error.empty()); // delayed, not failed
  // The histogram measures admission -> response, so it saw the delay too;
  // its percentile never under-reports.
  EXPECT_GE(svc.stats().p50_ms, 20.0 * 0.9);
}

TEST(ServeInjection, FailedShardIsUnavailableNotFatal) {
  // One shard, failed: lookups miss and inserts are dropped, so the same
  // request is recomputed every time - degraded, never crashed.
  sv::service_options opt;
  opt.jobs = 1;
  opt.cache_shards = 1;
  opt.faults = sv::fault_plan::parse("shard=0:fail");
  sv::service svc(opt);
  collector got;
  ASSERT_TRUE(svc.submit(1, R"({"id":"a","bench":"ewf"})", got.sink()));
  svc.drain();
  ASSERT_TRUE(svc.submit(2, R"({"id":"b","bench":"ewf"})", got.sink()));
  svc.drain();
  ASSERT_EQ(got.responses.size(), 2u);
  for (const sv::response& r : got.responses) {
    EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_TRUE(r.result.feasible);
  }
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.computed, 2u); // second request recomputed: no hit possible
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(svc.cache().counters().insertions, 0u); // inserts dropped
  EXPECT_TRUE(got.responses[0].result.same_schedule(got.responses[1].result));
}

// -- run_daemon -------------------------------------------------------------

TEST(ServeDaemon, StreamingModeAnswersEveryFrame) {
  std::istringstream in(framed({
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","bench":"hal"})",
      R"({"id":"c","broken)",
  }));
  std::ostringstream out;
  sv::daemon_options opt;
  opt.service.jobs = 1;
  const sv::daemon_summary summary = sv::run_daemon(in, out, opt);
  EXPECT_EQ(summary.frames, 3u);
  EXPECT_EQ(summary.requests, 3u);
  EXPECT_EQ(summary.responses, 3u);
  EXPECT_FALSE(summary.shutdown_requested);
  EXPECT_FALSE(summary.transport_error);
  EXPECT_EQ(summary.stats.completed, 3u);
  const std::vector<std::string> payloads = unframed(out.str());
  ASSERT_EQ(payloads.size(), 3u);
  int errors = 0;
  for (const std::string& p : payloads) {
    const json_value v = parse_json(p); // every frame is valid JSON
    if (v.find("error") != nullptr) ++errors;
  }
  EXPECT_EQ(errors, 1); // exactly the broken line
}

TEST(ServeDaemon, OrderedAndStreamingModesAgreeOnPayloads) {
  const std::vector<std::string> lines = {
      R"({"id":"a","bench":"ewf"})",       R"({"id":"b","random":120,"seed":5})",
      R"({"id":"c","bench":"ewf"})",       R"({"id":"bad","bench":"nope"})",
      R"({"id":"d","bench":"fir16"})",     R"(garbage)",
      R"({"id":"e","bench":"iir4"})",
  };
  auto run = [&lines](bool ordered) {
    std::istringstream in(framed(lines));
    std::ostringstream out;
    sv::daemon_options opt;
    opt.service.jobs = 4;
    opt.ordered = ordered;
    (void)sv::run_daemon(in, out, opt);
    std::vector<std::string> payloads = unframed(out.str());
    for (std::string& p : payloads) p = strip_ms(p);
    return payloads;
  };
  std::vector<std::string> streaming = run(false);
  const std::vector<std::string> ordered = run(true);
  ASSERT_EQ(streaming.size(), lines.size());
  ASSERT_EQ(ordered.size(), lines.size());
  // Ordered mode releases strictly by input sequence...
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const json_value v = parse_json(ordered[i]);
    EXPECT_EQ(v.find("line")->as_integer(1, 1000), static_cast<long long>(i + 1));
  }
  // ...and streaming mode emits the same payload *set*, just reordered.
  std::vector<std::string> ordered_sorted = ordered;
  std::sort(streaming.begin(), streaming.end());
  std::sort(ordered_sorted.begin(), ordered_sorted.end());
  EXPECT_EQ(streaming, ordered_sorted);
}

TEST(ServeDaemon, OrderedModeMatchesBatchEngineByteForByte) {
  // The determinism contract across front ends: --serve --serve-ordered
  // must be indistinguishable from --serve-batch modulo the ms field.
  const std::vector<std::string> lines = {
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","bench":"ewf","alus":3,"meta":"topo"})",
      R"({"id":"bad","bench":"missing"})",
      R"({"id":"c","bench":"ewf"})",
      R"(not json)",
      R"({"id":"d","random":120,"seed":5})",
  };
  sv::service_options bopt;
  bopt.jobs = 1;
  sv::service batch(bopt);
  std::string jsonl;
  for (const std::string& l : lines) jsonl += l + "\n";
  std::istringstream batch_in(jsonl);
  std::vector<std::string> batch_lines;
  (void)sv::run_batch(batch_in, batch, [&](const sv::response&, std::string_view line) {
    batch_lines.push_back(strip_ms(std::string(line)));
  });

  std::istringstream daemon_in(framed(lines));
  std::ostringstream daemon_out;
  sv::daemon_options dopt;
  dopt.service.jobs = 4;
  dopt.ordered = true;
  (void)sv::run_daemon(daemon_in, daemon_out, dopt);
  std::vector<std::string> daemon_lines = unframed(daemon_out.str());
  for (std::string& p : daemon_lines) p = strip_ms(p);

  ASSERT_EQ(daemon_lines.size(), batch_lines.size());
  for (std::size_t i = 0; i < daemon_lines.size(); ++i)
    EXPECT_EQ(daemon_lines[i], batch_lines[i]) << "line " << i;
}

TEST(ServeBatch, WindowNeverShedsAndKeepsInputOrder) {
  // A batch of three windows through four workers and a four-deep queue.
  // run_batch admits a line only while fewer than queue_capacity requests
  // are unwritten, so nothing is shed; the slot-0 delay makes every fourth
  // line finish last, so the reorder buffer has real work to do; and the
  // blank lines leave gaps in the line numbers that responses must keep.
  sv::service_options opt;
  opt.jobs = 4;
  opt.queue_capacity = 4;
  opt.faults = sv::fault_plan::parse("slot=0:delay_ms=3");
  sv::service svc(opt);
  std::string text;
  std::vector<std::size_t> line_of; // physical line of each request
  std::size_t line = 0;
  for (std::size_t i = 0; i < 3 * opt.queue_capacity; ++i) {
    if (i % 5 == 2) {
      text += "\n";
      ++line;
    }
    text += i % 4 == 3 ? std::string("garbage")
                       : R"({"id":"r)" + std::to_string(i) +
                             R"(","bench":"hal","alus":)" + std::to_string(1 + i % 3) + "}";
    text += "\n";
    line_of.push_back(++line);
  }
  std::istringstream in(text);
  std::vector<sv::response> got;
  const auto keep = [&](const sv::response& r, std::string_view) { got.push_back(r); };
  EXPECT_EQ(sv::run_batch(in, svc, keep), line_of.size());

  ASSERT_EQ(got.size(), line_of.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NE(got[i].error, "overloaded") << "request " << i;
    EXPECT_EQ(got[i].line, line_of[i]) << "request " << i;
    const std::string id =
        i % 4 == 3 ? "line" + std::to_string(line_of[i]) : "r" + std::to_string(i);
    EXPECT_EQ(got[i].id, id);
    EXPECT_EQ(got[i].error.empty(), i % 4 != 3) << got[i].error;
  }
  const sv::service_stats stats = svc.stats();
  EXPECT_EQ(stats.overloaded, 0u);
  EXPECT_LE(stats.peak_queue_depth, opt.queue_capacity);
}

TEST(ServeDaemon, StatsControlFrameReportsLiveCounters) {
  std::istringstream in(framed({
      R"({"id":"a","bench":"ewf"})",
      R"({"op":"stats"})",
  }));
  std::ostringstream out;
  sv::daemon_options opt;
  opt.service.jobs = 1;
  const sv::daemon_summary summary = sv::run_daemon(in, out, opt);
  EXPECT_EQ(summary.frames, 2u);
  EXPECT_EQ(summary.requests, 1u); // the control frame is not a request
  const std::vector<std::string> payloads = unframed(out.str());
  ASSERT_EQ(payloads.size(), 2u);
  const json_value* stats = nullptr;
  std::vector<json_value> docs;
  for (const std::string& p : payloads) docs.push_back(parse_json(p));
  for (const json_value& v : docs)
    if (const json_value* op = v.find("op"); op != nullptr) stats = &v;
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("op")->as_string(), "stats");
  EXPECT_EQ(stats->find("submitted")->as_integer(0, 100), 1);
  ASSERT_NE(stats->find("queue_depth"), nullptr);
  ASSERT_NE(stats->find("p99_ms"), nullptr);
  ASSERT_NE(stats->find("hit_rate"), nullptr);
}

TEST(ServeDaemon, StatsReportsRamCacheResidencyInPackedBytes) {
  sv::service_options opt;
  opt.jobs = 1;
  sv::service svc(opt);
  std::istringstream in(R"({"id":"a","bench":"ewf","alus":2,"muls":2})" "\n");
  std::vector<sv::response> responses;
  (void)sv::run_batch(in, svc, [&](const sv::response& r, std::string_view) {
    responses.push_back(r);
  });
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].error.empty()) << responses[0].error;
  ASSERT_EQ(svc.stats().computed, 1u);

  const json_value doc = parse_json(sv::render_stats(svc.stats(), {}, {}));
  const json_value* cache = doc.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("entries")->as_integer(0, 100), 1);
  // The resident value is the canonical-order twin of the answer: same
  // arrays up to order, so the same packed footprint.
  EXPECT_EQ(cache->find("bytes")->as_integer(0, 1 << 20),
            static_cast<long long>(responses[0].result.bytes()));
  EXPECT_EQ(cache->find("evictions")->as_integer(0, 100), 0);
  EXPECT_EQ(cache->find("rejected_oversize")->as_integer(0, 100), 0);
  EXPECT_EQ(doc.find("v")->as_integer(0, 100), 1); // additive field, same wire version
}

TEST(ServeDaemon, ShutdownDrainsThenAcksAndStopsReading) {
  std::istringstream in(framed({
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","bench":"hal"})",
      R"({"op":"shutdown"})",
      R"({"id":"never","bench":"ewf"})", // after shutdown: must stay unread
  }));
  std::ostringstream out;
  sv::daemon_options opt;
  opt.service.jobs = 2;
  const sv::daemon_summary summary = sv::run_daemon(in, out, opt);
  EXPECT_TRUE(summary.shutdown_requested);
  EXPECT_EQ(summary.frames, 3u);
  EXPECT_EQ(summary.requests, 2u);
  EXPECT_EQ(summary.stats.completed, 2u); // drained before the ack
  const std::vector<std::string> payloads = unframed(out.str());
  ASSERT_EQ(payloads.size(), 3u);
  // Pre-shutdown requests all answered; the ack is the final frame.
  EXPECT_EQ(payloads.back(), R"({"op":"shutdown","drained":true,"flushed":0})");
  for (std::size_t i = 0; i + 1 < payloads.size(); ++i)
    EXPECT_EQ(parse_json(payloads[i]).find("op"), nullptr);
}

TEST(ServeDaemon, UnknownOpIsAnErrorFrameNotAShutdown) {
  std::istringstream in(framed({
      R"({"op":"restart"})",
      R"({"id":"after","bench":"fig1"})", // daemon keeps serving
  }));
  std::ostringstream out;
  sv::daemon_options opt;
  opt.service.jobs = 1;
  const sv::daemon_summary summary = sv::run_daemon(in, out, opt);
  EXPECT_FALSE(summary.shutdown_requested);
  EXPECT_EQ(summary.requests, 1u);
  const std::vector<std::string> payloads = unframed(out.str());
  ASSERT_EQ(payloads.size(), 2u);
  // The versioned protocol answers a *structured* error: stable error
  // code, the offending op echoed, the wire version for clients to match.
  const json_value err = parse_json(payloads[0]);
  EXPECT_EQ(err.find("id")->as_string(), "control");
  EXPECT_EQ(err.find("error")->as_string(), "unknown_op");
  EXPECT_EQ(err.find("op")->as_string(), "restart");
  EXPECT_EQ(err.find("v")->as_number(), sv::wire_version);
  EXPECT_TRUE(parse_json(payloads[1]).find("feasible")->as_bool());
}

TEST(ServeDaemon, TransportErrorAnswersOnceDrainsAndStops) {
  std::string wire = framed({R"({"id":"a","bench":"ewf"})"});
  wire += "bogus-length\n";                       // malformed frame
  wire += framed({R"({"id":"b","bench":"hal"})"}); // must stay unread
  std::istringstream in(wire);
  std::ostringstream out;
  sv::daemon_options opt;
  opt.service.jobs = 1;
  const sv::daemon_summary summary = sv::run_daemon(in, out, opt);
  EXPECT_TRUE(summary.transport_error);
  EXPECT_EQ(summary.frames, 1u); // only the well-formed frame counted
  EXPECT_EQ(summary.requests, 1u);
  EXPECT_EQ(summary.stats.completed, 1u); // admitted work still drained
  const std::vector<std::string> payloads = unframed(out.str());
  ASSERT_EQ(payloads.size(), 2u);
  bool saw_transport = false;
  for (const std::string& p : payloads) {
    const json_value v = parse_json(p);
    if (const json_value* id = v.find("id");
        id != nullptr && id->is_string() && id->as_string() == "transport") {
      saw_transport = true;
      EXPECT_FALSE(v.find("error")->as_string().empty());
    }
  }
  EXPECT_TRUE(saw_transport);
}

TEST(ServeDaemon, OverloadShedsWithOverloadedFramesInOrder) {
  // Tiny queue + injected slot delay: a burst must produce a mix of real
  // and "overloaded" responses - exactly one frame per request, in input
  // order under --serve-ordered.
  std::vector<std::string> lines;
  for (int i = 0; i < 8; ++i) lines.push_back(R"({"bench":"fig1"})");
  std::istringstream in(framed(lines));
  std::ostringstream out;
  sv::daemon_options opt;
  opt.service.jobs = 1;
  opt.service.queue_capacity = 1;
  opt.service.retry_after_ms = 5;
  opt.service.faults = sv::fault_plan::parse("slot=0:delay_ms=10");
  opt.ordered = true;
  const sv::daemon_summary summary = sv::run_daemon(in, out, opt);
  EXPECT_EQ(summary.requests, 8u);
  EXPECT_EQ(summary.responses, 8u);
  EXPECT_GT(summary.stats.overloaded, 0u);
  EXPECT_LE(summary.stats.peak_queue_depth, 1u);
  const std::vector<std::string> payloads = unframed(out.str());
  ASSERT_EQ(payloads.size(), 8u);
  std::uint64_t shed = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const json_value v = parse_json(payloads[i]);
    EXPECT_EQ(v.find("line")->as_integer(1, 100), static_cast<long long>(i + 1));
    if (const json_value* e = v.find("error");
        e != nullptr && e->is_string() && e->as_string() == "overloaded") {
      ++shed;
      EXPECT_NE(payloads[i].find("\"retry_after_ms\":5"), std::string::npos);
    }
  }
  EXPECT_EQ(shed, summary.stats.overloaded);
  EXPECT_EQ(shed + summary.stats.completed, 8u);
}

// -- listen spec + flag surface (serve/options.h) ---------------------------

TEST(ListenSpec, ParsesStdioTcpAndUnixForms) {
  EXPECT_EQ(sv::listen_spec::parse("stdio").kind, sv::listen_spec::transport::stdio);
  const sv::listen_spec tcp = sv::listen_spec::parse("tcp:127.0.0.1:8901");
  EXPECT_EQ(tcp.kind, sv::listen_spec::transport::tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 8901);
  EXPECT_EQ(tcp.label(), "tcp:127.0.0.1:8901");
  const sv::listen_spec ux = sv::listen_spec::parse("unix:/tmp/softsched.sock");
  EXPECT_EQ(ux.kind, sv::listen_spec::transport::unix_domain);
  EXPECT_EQ(ux.path, "/tmp/softsched.sock");
  EXPECT_EQ(ux.label(), "unix:/tmp/softsched.sock");
}

TEST(ListenSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "tcp:", "tcp:127.0.0.1", "tcp::80", "tcp:host:",
                          "tcp:host:notaport", "tcp:host:70000", "unix:",
                          "pipe:/tmp/x"})
    EXPECT_THROW((void)sv::listen_spec::parse(bad), precondition_error) << bad;
}

TEST(ServeFlags, ValidationIsOneSharedErrorPath) {
  const sv::serve_flags good;
  EXPECT_NO_THROW(sv::validate_serve_flags(good));
  sv::serve_flags f = good;
  f.max_conns = 0;
  EXPECT_THROW(sv::validate_serve_flags(f), precondition_error);
  f = good;
  f.serve_queue = 0;
  EXPECT_THROW(sv::validate_serve_flags(f), precondition_error);
  f = good;
  f.cache_mb = -1;
  EXPECT_THROW(sv::validate_serve_flags(f), precondition_error);
  f = good;
  f.disk_cache_mb = -1;
  EXPECT_THROW(sv::validate_serve_flags(f), precondition_error);
  f = good;
  f.listen = "carrier-pigeon"; // the same path rejects a malformed --listen
  EXPECT_THROW(sv::validate_serve_flags(f), precondition_error);
}

TEST(ServeFlags, MapIntoEngineAndDaemonOptions) {
  // One mapping serves both front ends: --serve-batch runs on d.service.
  sv::serve_flags f;
  f.jobs = 3;
  f.cache_mb = 8;
  f.serve_queue = 32;
  f.serve_ordered = true;
  f.serve_compact = true;
  f.max_conns = 5;
  f.listen = "unix:/tmp/softsched-flags.sock";
  const sv::daemon_options d = sv::daemon_options_from_flags(f);
  EXPECT_EQ(d.service.jobs, 3);
  EXPECT_EQ(d.service.cache_bytes, 8u << 20);
  EXPECT_EQ(d.service.queue_capacity, 32u);
  EXPECT_FALSE(d.service.emit_schedule);
  EXPECT_TRUE(d.ordered);
  EXPECT_EQ(d.max_connections, 5u);
  EXPECT_EQ(sv::listen_from_flags(f).path, "/tmp/softsched-flags.sock");
}

// -- conn= fault grammar ----------------------------------------------------

TEST(FaultPlan, ParsesConnRules) {
  const sv::fault_plan p =
      sv::fault_plan::parse("conn=2:drop,conn=5:stall_ms=12.5,slot=0:delay_ms=1");
  ASSERT_EQ(p.conns.size(), 2u);
  EXPECT_TRUE(p.conns.at(2).drop);
  EXPECT_EQ(p.conns.at(2).stall_ms, 0);
  EXPECT_FALSE(p.conns.at(5).drop);
  EXPECT_EQ(p.conns.at(5).stall_ms, 12.5);
  EXPECT_EQ(p.slots.at(0).delay_ms, 1);
  EXPECT_FALSE(p.empty());
}

TEST(FaultPlan, RejectsConnActionMismatches) {
  // conn actions stay on conn targets, slot/shard actions on theirs.
  EXPECT_THROW((void)sv::fault_plan::parse("conn=1:fail"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("conn=1:torn"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("conn=1:delay_ms=5"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("slot=1:drop"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("shard=1:stall_ms=5"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("conn=1:stall_ms=abc"), precondition_error);
  EXPECT_THROW((void)sv::fault_plan::parse("conn=x:drop"), precondition_error);
}

// -- socket transports ------------------------------------------------------

namespace {

/// A per-test unix-socket path under gtest's temp dir.
std::string unix_sock(const std::string& name) {
  return ::testing::TempDir() + "softsched_" + name + ".sock";
}

/// One in-process socket daemon: listener + shared service + accept loop on
/// a background thread, stopped and joined on destruction.
struct socket_daemon {
  std::unique_ptr<sv::listener> lis;
  sv::service svc;
  sv::socket_server server;
  std::thread runner;
  sv::socket_server_summary summary;

  socket_daemon(const sv::listen_spec& spec, const sv::service_options& sopt,
                const sv::socket_server_options& opt = {})
      : lis(sv::make_listener(spec)),
        svc(sopt),
        server(*lis, svc, opt),
        runner([this] { summary = server.run(); }) {}

  ~socket_daemon() {
    server.stop();
    if (runner.joinable()) runner.join();
  }

  /// The bound address (tcp:HOST:0 resolved to the kernel's port).
  [[nodiscard]] sv::listen_spec address() const {
    return sv::listen_spec::parse(lis->address());
  }

  /// Stops the accept loop and hands back its summed summary.
  sv::socket_server_summary finish() {
    server.stop();
    if (runner.joinable()) runner.join();
    return summary;
  }
};

/// Connects to `spec`, retrying briefly.
std::unique_ptr<sv::byte_stream> connect_client(const sv::listen_spec& spec) {
  for (int i = 0; i < 200; ++i) {
    if (auto s = sv::connect_stream(spec)) return s;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return nullptr;
}

/// Decodes response frames until EOF (the server half-closes after drain).
std::vector<std::string> read_to_eof(sv::byte_stream& s) {
  std::vector<std::string> payloads;
  for (;;) {
    const sv::frame_read f = sv::read_frame(s);
    if (f.status != sv::frame_status::ok) {
      EXPECT_EQ(f.status, sv::frame_status::eof) << f.error;
      break;
    }
    payloads.push_back(f.payload);
  }
  return payloads;
}

/// Sends every line, half-closes the write side (the socket sibling of
/// stdin EOF), and reads every response frame.
std::vector<std::string> socket_round_trip(sv::byte_stream& s,
                                           const std::vector<std::string>& lines) {
  for (const std::string& l : lines) EXPECT_TRUE(sv::write_frame(s, l));
  s.finish_write();
  return read_to_eof(s);
}

} // namespace

TEST(SocketDaemon, TcpAndUnixMatchStdioByteForByte) {
  const std::vector<std::string> lines = {
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","bench":"hal"})",
      R"({"id":"c","bench":"fig1"})",
  };
  // The stdio reference run, ordered so response order is deterministic.
  std::istringstream in(framed(lines));
  std::ostringstream out;
  sv::daemon_options dopt;
  dopt.service.jobs = 2;
  dopt.ordered = true;
  (void)sv::run_daemon(in, out, dopt);
  std::vector<std::string> want = unframed(out.str());
  for (std::string& p : want) p = strip_ms(p);
  ASSERT_EQ(want.size(), lines.size());

  sv::socket_server_options opt;
  opt.connection.ordered = true;
  const std::vector<sv::listen_spec> binds = {
      sv::listen_spec::parse("unix:" + unix_sock("parity")),
      sv::listen_spec::parse("tcp:127.0.0.1:0"),
  };
  for (const sv::listen_spec& bind : binds) {
    socket_daemon daemon(bind, dopt.service, opt);
    const sv::listen_spec addr = daemon.address();
    if (bind.kind == sv::listen_spec::transport::tcp) {
      EXPECT_NE(addr.port, 0); // ephemeral port resolved at bind
    }
    const std::unique_ptr<sv::byte_stream> client = connect_client(addr);
    ASSERT_NE(client, nullptr) << addr.label();
    std::vector<std::string> got = socket_round_trip(*client, lines);
    for (std::string& p : got) p = strip_ms(p);
    EXPECT_EQ(got, want) << addr.label();
    const sv::socket_server_summary s = daemon.finish();
    EXPECT_EQ(s.conns.accepted, 1u);
    EXPECT_EQ(s.conns.closed, 1u);
    EXPECT_EQ(s.requests, lines.size());
    EXPECT_GT(s.conns.bytes_in, 0u);
    EXPECT_GT(s.conns.bytes_out, 0u);
  }
}

TEST(SocketDaemon, HelloNegotiatesVersionTransportsAndCaps) {
  const sv::listen_spec spec = sv::listen_spec::parse("unix:" + unix_sock("hello"));
  sv::service_options sopt;
  sopt.jobs = 1;
  socket_daemon daemon(spec, sopt);
  const std::unique_ptr<sv::byte_stream> client = connect_client(spec);
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(sv::write_frame(*client, R"({"op":"hello"})"));
  const sv::frame_read hello = sv::read_frame(*client);
  ASSERT_EQ(hello.status, sv::frame_status::ok) << hello.error;
  EXPECT_EQ(hello.payload, sv::render_hello()); // renderer IS the wire
  const json_value v = parse_json(hello.payload);
  EXPECT_EQ(v.find("op")->as_string(), "hello");
  EXPECT_EQ(v.find("v")->as_number(), sv::wire_version);
  std::vector<std::string> transports;
  for (const json_value& t : v.find("transports")->items())
    transports.push_back(t.as_string());
  EXPECT_EQ(transports, (std::vector<std::string>{"stdio", "tcp", "unix"}));
  std::vector<std::string> caps;
  for (const json_value& c : v.find("caps")->items()) caps.push_back(c.as_string());
  for (const char* cap : {"hello", "stats", "shutdown", "shed", "dedup"})
    EXPECT_NE(std::find(caps.begin(), caps.end(), cap), caps.end()) << cap;
  // A shutdown from this connection stops the whole server.
  ASSERT_TRUE(sv::write_frame(*client, R"({"op":"shutdown"})"));
  const std::vector<std::string> rest = read_to_eof(*client);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], sv::render_shutdown_ack(0));
  const sv::socket_server_summary s = daemon.finish();
  EXPECT_TRUE(s.shutdown_requested);
}

TEST(SocketDaemon, StatsReportsConnectionAggregateAndSelf) {
  const sv::listen_spec spec = sv::listen_spec::parse("unix:" + unix_sock("stats"));
  sv::service_options sopt;
  sopt.jobs = 1;
  socket_daemon daemon(spec, sopt);
  const std::unique_ptr<sv::byte_stream> client = connect_client(spec);
  ASSERT_NE(client, nullptr);
  const std::vector<std::string> payloads = socket_round_trip(
      *client, {R"({"bench":"fig1"})", R"({"op":"stats"})"});
  ASSERT_EQ(payloads.size(), 2u);
  const json_value* stats = nullptr;
  std::vector<json_value> docs;
  for (const std::string& p : payloads) docs.push_back(parse_json(p));
  for (const json_value& d : docs)
    if (const json_value* op = d.find("op");
        op != nullptr && op->is_string() && op->as_string() == "stats")
      stats = &d;
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->find("v")->as_number(), sv::wire_version);
  const json_value* conns = stats->find("conns");
  ASSERT_NE(conns, nullptr);
  EXPECT_EQ(conns->find("transport")->as_string(), spec.label());
  EXPECT_EQ(conns->find("accepted")->as_integer(0, 100), 1);
  EXPECT_EQ(conns->find("active")->as_integer(0, 100), 1);
  EXPECT_GT(conns->find("bytes_in")->as_number(), 0); // live bytes included
  const json_value* self = stats->find("conn");
  ASSERT_NE(self, nullptr);
  EXPECT_EQ(self->find("frames")->as_integer(0, 100), 2);
  EXPECT_EQ(self->find("requests")->as_integer(0, 100), 1);
  EXPECT_FALSE(self->find("transport")->as_string().empty());
}

TEST(SocketDaemon, ConnectionLimitShedsBeyondMaxConns) {
  const sv::listen_spec spec = sv::listen_spec::parse("unix:" + unix_sock("shed"));
  sv::service_options sopt;
  sopt.jobs = 1;
  // conn=1 stalls before its first read while holding the only slot - the
  // deterministic pin for the shed boundary.
  sopt.faults = sv::fault_plan::parse("conn=1:stall_ms=250");
  sv::socket_server_options opt;
  opt.max_connections = 1;
  opt.retry_after_ms = 7;
  socket_daemon daemon(spec, sopt, opt);
  const std::unique_ptr<sv::byte_stream> first = connect_client(spec);
  ASSERT_NE(first, nullptr);
  const std::unique_ptr<sv::byte_stream> second = connect_client(spec);
  ASSERT_NE(second, nullptr);
  // The connection beyond the bound: one framed shed answer, then close.
  const sv::frame_read shed = sv::read_frame(*second);
  ASSERT_EQ(shed.status, sv::frame_status::ok) << shed.error;
  EXPECT_EQ(shed.payload, sv::render_connection_shed(7));
  const json_value v = parse_json(shed.payload);
  EXPECT_EQ(v.find("error")->as_string(), "too_many_connections");
  EXPECT_EQ(v.find("retry_after_ms")->as_number(), 7);
  EXPECT_EQ(sv::read_frame(*second).status, sv::frame_status::eof);
  // The stalled connection is degraded, not broken: it still serves.
  const std::vector<std::string> served =
      socket_round_trip(*first, {R"({"bench":"fig1"})"});
  ASSERT_EQ(served.size(), 1u);
  EXPECT_TRUE(parse_json(served[0]).find("feasible")->as_bool());
  const sv::socket_server_summary s = daemon.finish();
  EXPECT_EQ(s.conns.accepted, 2u);
  EXPECT_EQ(s.conns.shed, 1u);
  EXPECT_EQ(s.requests, 1u);
}

TEST(SocketDaemon, ConcurrentClientsShareOneFlightAcrossConnections) {
  const sv::listen_spec spec = sv::listen_spec::parse("unix:" + unix_sock("dedup"));
  sv::service_options sopt;
  sopt.jobs = 4;
  socket_daemon daemon(spec, sopt);
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&] {
      const std::unique_ptr<sv::byte_stream> c = connect_client(spec);
      ASSERT_NE(c, nullptr);
      const std::vector<std::string> r =
          socket_round_trip(*c, {R"({"bench":"ewf"})"});
      ASSERT_EQ(r.size(), 1u);
      EXPECT_TRUE(parse_json(r[0]).find("feasible")->as_bool());
      answered.fetch_add(1);
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(answered.load(), kClients);
  daemon.svc.drain();
  const sv::service_stats stats = daemon.svc.stats();
  // Identical requests from different connections collapse onto ONE
  // computation: the leader computes, every other lands as a dedup
  // follower or a cache hit depending on arrival timing.
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.deduped + stats.cache_hits, static_cast<std::uint64_t>(kClients - 1));
  const sv::socket_server_summary s = daemon.finish();
  EXPECT_EQ(s.conns.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.conns.closed, static_cast<std::uint64_t>(kClients));
}

TEST(SocketDaemon, DeadClientMidFlightLeavesSurvivorByteIdentical) {
  const std::vector<std::string> survivor_lines = {
      R"({"id":"s1","bench":"ewf"})",
      R"({"id":"s2","bench":"fig1"})",
      R"({"id":"s3","bench":"fig2"})",
  };
  sv::service_options sopt;
  sopt.jobs = 1;
  // Every request is slowed a little so the victim's is still in flight
  // when its socket dies.
  sopt.faults = sv::fault_plan::parse("slot=0:delay_ms=30");
  sv::socket_server_options opt;
  opt.connection.ordered = true;

  // Solo reference: the survivor alone against a fresh daemon.
  std::vector<std::string> want;
  {
    const sv::listen_spec spec = sv::listen_spec::parse("unix:" + unix_sock("solo"));
    socket_daemon daemon(spec, sopt, opt);
    const std::unique_ptr<sv::byte_stream> client = connect_client(spec);
    ASSERT_NE(client, nullptr);
    want = socket_round_trip(*client, survivor_lines);
    for (std::string& p : want) p = strip_ms(p);
  }
  ASSERT_EQ(want.size(), survivor_lines.size());

  // Same run, but a victim connection dies mid-flight without reading.
  const sv::listen_spec spec = sv::listen_spec::parse("unix:" + unix_sock("kill"));
  socket_daemon daemon(spec, sopt, opt);
  {
    std::unique_ptr<sv::byte_stream> victim = connect_client(spec);
    ASSERT_NE(victim, nullptr);
    // A bench the survivor never asks for, so the survivor's cache
    // behaviour (and thus its bytes) cannot depend on the victim.
    ASSERT_TRUE(sv::write_frame(*victim, R"({"id":"v","bench":"hal"})"));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } // destroyed unread: the server's response write hits a dead peer
  const std::unique_ptr<sv::byte_stream> survivor = connect_client(spec);
  ASSERT_NE(survivor, nullptr);
  std::vector<std::string> got = socket_round_trip(*survivor, survivor_lines);
  for (std::string& p : got) p = strip_ms(p);
  EXPECT_EQ(got, want); // byte-identical to the solo run, modulo ms
  daemon.svc.drain();
  // The victim's admitted request still completed - a dead peer discards
  // the response bytes but never aborts or stalls the drain.
  EXPECT_EQ(daemon.svc.stats().completed, survivor_lines.size() + 1);
  const sv::socket_server_summary s = daemon.finish();
  EXPECT_EQ(s.conns.accepted, 2u);
  EXPECT_EQ(s.conns.closed, 2u);
}

TEST(SocketDaemon, ConnDropFaultClosesAtAcceptWithoutReadingBytes) {
  const sv::listen_spec spec = sv::listen_spec::parse("unix:" + unix_sock("drop"));
  sv::service_options sopt;
  sopt.jobs = 1;
  sopt.faults = sv::fault_plan::parse("conn=1:drop");
  socket_daemon daemon(spec, sopt);
  const std::unique_ptr<sv::byte_stream> dropped = connect_client(spec);
  ASSERT_NE(dropped, nullptr);
  // The server closes the dropped connection without reading a byte.
  EXPECT_EQ(sv::read_frame(*dropped).status, sv::frame_status::eof);
  const std::unique_ptr<sv::byte_stream> next = connect_client(spec);
  ASSERT_NE(next, nullptr);
  const std::vector<std::string> served =
      socket_round_trip(*next, {R"({"bench":"fig1"})"});
  ASSERT_EQ(served.size(), 1u);
  EXPECT_TRUE(parse_json(served[0]).find("feasible")->as_bool());
  const sv::socket_server_summary s = daemon.finish();
  EXPECT_EQ(s.conns.accepted, 2u);
  EXPECT_EQ(s.conns.faulted, 1u);
  EXPECT_EQ(s.requests, 1u);
}
