// serve_test.cpp - the batch scheduling service: one-lock LRU cache
// (budget, eviction order, counters, concurrency), strict request parsing,
// and the request pipeline behind --serve-batch (service + run_batch:
// cache hits, design unification, determinism across worker counts and
// cache sizes, error routing, JSONL round trip), and the source memo's
// second-sighting admission and bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ir/benchmarks.h"
#include "ir/dfg_io.h"
#include "serve/cache.h"
#include "serve/daemon.h"
#include "serve/request.h"
#include "util/check.h"
#include "util/json_parse.h"
#include "util/thread_pool.h"

namespace si = softsched::ir;
namespace sv = softsched::serve;
namespace sm = softsched::meta;
using softsched::json_error;
using softsched::parse_json;
using softsched::thread_pool;

namespace {

si::dfg_digest key_of(std::uint64_t n) { return si::dfg_digest{n, ~n}; }

sv::schedule_result result_of(long long latency, std::size_t pad = 0) {
  sv::schedule_result r;
  r.feasible = true;
  r.ops = 1;
  r.latency = latency;
  r.start_times = std::vector<long long>(pad + 1, latency);
  r.unit_of = std::vector<int>(pad + 1, 0);
  return r;
}

/// One batch through the --serve-batch front end; responses in input order.
std::vector<sv::response> run_lines(sv::service& svc,
                                    const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& l : lines) text += l + "\n";
  std::istringstream in(text);
  std::vector<sv::response> out;
  (void)sv::run_batch(in, svc,
                      [&](const sv::response& r, std::string_view) { out.push_back(r); });
  return out;
}

sv::service_options serial_options() {
  sv::service_options opt;
  opt.jobs = 1; // one worker: requests run strictly in input order
  return opt;
}

} // namespace

// -- schedule_cache ---------------------------------------------------------

TEST(ScheduleCache, InsertLookupRoundTrip) {
  sv::schedule_cache cache(1 << 20);
  EXPECT_FALSE(cache.lookup(key_of(1)) != nullptr);
  cache.insert(key_of(1), result_of(17));
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->same_schedule(result_of(17)));
  const sv::cache_counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.insertions, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_GT(c.bytes, 0u);
}

TEST(ScheduleCache, LruEvictsColdestFirst) {
  // The budget fits exactly three values.
  const std::size_t one = result_of(1).bytes();
  sv::schedule_cache cache(3 * one);
  cache.insert(key_of(1), result_of(1));
  cache.insert(key_of(2), result_of(2));
  cache.insert(key_of(3), result_of(3));
  ASSERT_TRUE(cache.lookup(key_of(1)) != nullptr); // refresh 1: now 2 is coldest
  cache.insert(key_of(4), result_of(4));
  EXPECT_FALSE(cache.lookup(key_of(2)) != nullptr); // evicted
  EXPECT_TRUE(cache.lookup(key_of(1)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(3)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(4)) != nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.counters().entries, 3u);
}

TEST(ScheduleCache, ReinsertReplacesValue) {
  sv::schedule_cache cache(1 << 20);
  cache.insert(key_of(9), result_of(5));
  cache.insert(key_of(9), result_of(6));
  const auto hit = cache.lookup(key_of(9));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->latency, 6);
  EXPECT_EQ(cache.counters().entries, 1u);
}

TEST(ScheduleCache, OversizeValueRejectedNotThrashed) {
  const std::size_t one = result_of(1).bytes();
  sv::schedule_cache cache(2 * one);
  cache.insert(key_of(1), result_of(1));
  cache.insert(key_of(2), result_of(2, /*pad=*/4096)); // alone exceeds the budget
  EXPECT_FALSE(cache.lookup(key_of(2)) != nullptr);
  EXPECT_TRUE(cache.lookup(key_of(1)) != nullptr); // resident entry untouched
  EXPECT_EQ(cache.counters().rejected_oversize, 1u);
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(ScheduleCache, ZeroBudgetCachesNothingButOperates) {
  sv::schedule_cache cache(0);
  cache.insert(key_of(1), result_of(1));
  EXPECT_FALSE(cache.lookup(key_of(1)) != nullptr);
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_EQ(cache.counters().rejected_oversize, 1u);
}

TEST(ScheduleCache, ValueUpToTheWholeBudgetIsCached) {
  // The budget is not split: one value of half the budget is resident.
  const std::size_t budget = std::size_t{1} << 16;
  sv::schedule_cache cache(budget);
  // Each pad element costs one packed byte in each of the two arrays.
  const sv::schedule_result big =
      result_of(7, /*pad=*/(budget / 2 - result_of(7).bytes()) / 2);
  ASSERT_LE(big.bytes(), budget / 2);
  ASSERT_GT(big.bytes(), budget / 4);
  cache.insert(key_of(1), big);
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(hit->same_schedule(big));
  EXPECT_EQ(cache.counters().rejected_oversize, 0u);
  EXPECT_LE(cache.counters().bytes, budget);
}

TEST(ScheduleCache, ClearDropsEntriesKeepsCounters) {
  sv::schedule_cache cache(1 << 20);
  cache.insert(key_of(1), result_of(1));
  ASSERT_TRUE(cache.lookup(key_of(1)) != nullptr);
  cache.clear();
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_EQ(cache.counters().bytes, 0u);
  EXPECT_EQ(cache.counters().hits, 1u); // cumulative history survives
  EXPECT_FALSE(cache.lookup(key_of(1)) != nullptr);
}

TEST(ScheduleCache, ConcurrentAccessKeepsAccountsConsistent) {
  sv::schedule_cache cache(1 << 18);
  thread_pool pool(4);
  constexpr std::size_t lookups_per_job = 64;
  constexpr std::size_t job_count = 32;
  std::atomic<std::uint64_t> observed_hits{0};
  softsched::parallel_for_index(&pool, job_count, [&](std::size_t job) {
    for (std::size_t i = 0; i < lookups_per_job; ++i) {
      const auto key = key_of((job * lookups_per_job + i) % 16);
      if (cache.lookup(key) != nullptr) {
        observed_hits.fetch_add(1, std::memory_order_relaxed);
      } else {
        cache.insert(key, result_of(static_cast<long long>(i)));
      }
    }
  });
  const sv::cache_counters c = cache.counters();
  EXPECT_EQ(c.hits, observed_hits.load());
  EXPECT_EQ(c.hits + c.misses, job_count * lookups_per_job);
  EXPECT_LE(c.entries, 16u);
}

TEST(ScheduleCache, ConcurrentInsertAndLookupKeepResidencyWithinBudget) {
  // Four threads over overlapping keys against a budget that holds only a
  // few values: eviction runs constantly, residency never passes the
  // budget, and every hit returns exactly the value its key was given.
  const std::size_t budget = 6 * result_of(0, 8).bytes();
  sv::schedule_cache cache(budget);
  constexpr std::size_t threads = 4;
  constexpr std::size_t steps = 2000;
  std::atomic<std::size_t> bad_hits{0};
  std::atomic<std::size_t> over_budget{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = 0; i < steps; ++i) {
        const std::uint64_t k = (t * 7 + i) % 24;
        const auto value = static_cast<long long>(k) * 3 + 1;
        if (const auto hit = cache.lookup(key_of(k))) {
          if (!hit->same_schedule(result_of(value, 8))) bad_hits.fetch_add(1);
        } else {
          cache.insert(key_of(k), result_of(value, 8));
        }
        if (cache.counters().bytes > budget) over_budget.fetch_add(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const sv::cache_counters c = cache.counters();
  EXPECT_EQ(bad_hits.load(), 0u);
  EXPECT_EQ(over_budget.load(), 0u);
  EXPECT_LE(c.bytes, budget);
  EXPECT_EQ(c.hits + c.misses, threads * steps);
  EXPECT_GT(c.evictions, 0u);
  EXPECT_EQ(c.rejected_oversize, 0u);
}

// -- request parsing --------------------------------------------------------

TEST(ServeRequest, ParsesBenchRequestWithDefaults) {
  const sv::request r = sv::parse_request_line(R"({"id":"q1","bench":"ewf"})");
  EXPECT_EQ(r.id, "q1");
  EXPECT_EQ(r.design.bench, "ewf");
  EXPECT_EQ(r.resources.alus, 2);
  EXPECT_EQ(r.resources.multipliers, 2);
  EXPECT_EQ(r.resources.memory_ports, 1);
  EXPECT_EQ(r.mul_latency, 2);
  EXPECT_EQ(r.meta, sm::meta_kind::list_priority);
}

TEST(ServeRequest, ParsesRandomAndDfgSources) {
  const sv::request r = sv::parse_request_line(
      R"({"random":600,"seed":7,"edge_prob":0.5,"alus":3,"muls":1,"mems":2,"mul_latency":3,"meta":"dfs"})");
  EXPECT_EQ(r.design.random_vertices, 600);
  EXPECT_EQ(r.design.seed, 7u);
  EXPECT_DOUBLE_EQ(r.design.random_edge_prob, 0.5);
  EXPECT_EQ(r.resources.alus, 3);
  EXPECT_EQ(r.mul_latency, 3);
  EXPECT_EQ(r.meta, sm::meta_kind::depth_first);

  const sv::request d =
      sv::parse_request_line(R"({"dfg":"dfg t\nop a add\nop b add a\n"})");
  EXPECT_EQ(d.dfg_text, "dfg t\nop a add\nop b add a\n");
}

TEST(ServeRequest, RejectsMalformedRequests) {
  EXPECT_THROW(sv::parse_request_line("not json"), json_error);
  EXPECT_THROW(sv::parse_request_line("[1,2]"), json_error); // not an object
  EXPECT_THROW(sv::parse_request_line(R"({"alus":2})"), json_error); // no source
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","random":5})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","typo":1})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","alus":-1})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","alus":2.5})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","meta":"random"})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","edge_prob":0})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"random":0})"), json_error);
}

TEST(ServeRequest, SourceSignatureSeparatesDesignsAndLatency) {
  const sv::request a = sv::parse_request_line(R"({"bench":"ewf"})");
  const sv::request b = sv::parse_request_line(R"({"bench":"ewf","alus":4})");
  const sv::request c = sv::parse_request_line(R"({"bench":"ewf","mul_latency":1})");
  const sv::request d = sv::parse_request_line(R"({"bench":"hal"})");
  EXPECT_EQ(a.source_signature(), b.source_signature()); // allocation not in source
  EXPECT_NE(a.source_signature(), c.source_signature()); // latency bakes delays
  EXPECT_NE(a.source_signature(), d.source_signature());
}

// -- service + run_batch ----------------------------------------------------

TEST(ServeEngine, DedupsIdenticalInFlightRequests) {
  sv::service svc(serial_options());
  const auto responses = run_lines(svc, {
                                            R"({"id":"a","bench":"ewf"})",
                                            R"({"id":"b","bench":"ewf"})",
                                            R"({"id":"c","bench":"ewf"})",
                                            R"({"id":"d","bench":"hal"})",
                                        });
  ASSERT_EQ(responses.size(), 4u);
  // One worker runs the requests in input order, so each repeat finds its
  // twin already published: a cache hit, never an in-flight dedup.
  EXPECT_EQ(svc.stats().computed, 2u);
  EXPECT_EQ(svc.stats().cache_hits, 2u);
  EXPECT_EQ(svc.stats().deduped, 0u);
  EXPECT_EQ(responses[0].key, responses[1].key);
  EXPECT_TRUE(responses[0].result.same_schedule(responses[1].result));
  EXPECT_TRUE(responses[0].result.same_schedule(responses[2].result));
  EXPECT_NE(responses[0].key, responses[3].key);
  EXPECT_TRUE(responses[0].result.feasible);
  EXPECT_GT(responses[0].result.latency, 0);
}

TEST(ServeEngine, EquivalentDfgTextUnifiesWithBenchmark) {
  // A client uploading EWF as inline .dfg text (different names, ids from
  // the writer) lands on the same cache entry as {"bench":"ewf"}.
  const si::resource_library lib;
  std::ostringstream text;
  si::write_dfg(text, si::make_ewf(lib));
  std::string escaped;
  for (const char ch : text.str()) {
    if (ch == '\n') escaped += "\\n";
    else escaped += ch;
  }
  sv::service svc(serial_options());
  const auto responses = run_lines(
      svc, {R"({"id":"bench","bench":"ewf"})",
            std::string(R"({"id":"text","dfg":")") + escaped + "\"}"});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_TRUE(responses[0].error.empty()) << responses[0].error;
  EXPECT_TRUE(responses[1].error.empty()) << responses[1].error;
  EXPECT_EQ(responses[0].key, responses[1].key);
  EXPECT_EQ(svc.stats().computed, 1u);
  EXPECT_EQ(svc.stats().cache_hits, 1u);
}

TEST(ServeEngine, DeterministicAcrossJobsAndCacheSizes) {
  const std::vector<std::string> lines = {
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","random":120,"seed":5})",
      R"({"id":"c","bench":"ewf","alus":3,"meta":"topo"})",
      R"({"id":"bad","bench":"nope"})",
      R"({"id":"d","random":120,"seed":5})",
      R"({"id":"e","bench":"fir16","muls":3})",
      R"(garbage line)",
      R"({"id":"f","bench":"iir4","mul_latency":1})",
  };
  sv::service reference(serial_options());
  const auto expected = run_lines(reference, lines);

  for (const int jobs : {1, 4}) {
    for (const std::size_t cache_bytes : {std::size_t{0}, std::size_t{1} << 26}) {
      sv::service_options opt;
      opt.jobs = jobs;
      opt.cache_bytes = cache_bytes;
      sv::service svc(opt);
      const auto got = run_lines(svc, lines);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i].same_payload(expected[i]))
            << "jobs " << jobs << " cache " << cache_bytes << " line " << i;
    }
  }
}

TEST(ServeEngine, SecondRunServedEntirelyFromCache) {
  const std::vector<std::string> lines = {
      R"({"id":"a","bench":"ewf"})",
      R"({"id":"b","bench":"hal","alus":1})",
  };
  sv::service svc(serial_options());
  const auto cold = run_lines(svc, lines);
  EXPECT_EQ(svc.stats().computed, 2u);
  const auto hot = run_lines(svc, lines);
  EXPECT_EQ(svc.stats().computed, 2u); // unchanged: nothing recomputed
  EXPECT_EQ(svc.stats().cache_hits, 2u);
  ASSERT_EQ(hot.size(), cold.size());
  for (std::size_t i = 0; i < hot.size(); ++i)
    EXPECT_TRUE(hot[i].same_payload(cold[i]));
}

TEST(ServeEngine, InfeasibleAllocationIsAResponseAndCached) {
  sv::service svc(serial_options());
  const auto first = run_lines(svc, {R"({"id":"x","bench":"ewf","muls":0})"});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].error.empty());
  EXPECT_FALSE(first[0].result.feasible);
  EXPECT_FALSE(first[0].result.infeasible_reason.empty());
  EXPECT_EQ(first[0].result.latency, -1);
  const auto second = run_lines(svc, {R"({"id":"y","bench":"ewf","muls":0})"});
  EXPECT_EQ(svc.stats().cache_hits, 1u);
  EXPECT_TRUE(second[0].result.same_schedule(first[0].result));
}

TEST(ServeEngine, ErrorsStayOnTheirLines) {
  sv::service_options opt;
  opt.jobs = 2;
  opt.queue_capacity = 2; // a batch window smaller than the batch
  sv::service svc(opt);
  const auto responses = run_lines(svc, {
                                            R"({"id":"ok1","bench":"fig1"})",
                                            R"({"broken")",
                                            R"({"id":"ok2","bench":"fig1"})",
                                            R"({"id":"nope","bench":"missing"})",
                                            R"({"id":"ok3","bench":"fig1"})",
                                        });
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_TRUE(responses[0].error.empty());
  EXPECT_FALSE(responses[1].error.empty());
  EXPECT_TRUE(responses[2].error.empty());
  EXPECT_FALSE(responses[3].error.empty());
  EXPECT_TRUE(responses[4].error.empty());
  for (std::size_t i = 0; i < responses.size(); ++i)
    EXPECT_EQ(responses[i].line, i + 1);
  const sv::service_stats stats = svc.stats();
  EXPECT_EQ(stats.errors, 2u);
  // fig1 was computed once. On two workers, whether a later fig1 request
  // joins the computation in flight or hits the cache depends on timing.
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.deduped + stats.cache_hits, 2u);
}

TEST(ServeEngine, WireCarryingDfgTextSchedules) {
  sv::service svc(serial_options());
  const auto responses = run_lines(
      svc, {R"({"id":"w","dfg":"dfg t\nop a add\nwire w1 2 a\nop b add\nedge w1 b\n"})"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].error.empty()) << responses[0].error;
  EXPECT_TRUE(responses[0].result.feasible);
  EXPECT_EQ(responses[0].result.ops, 3u);
}

namespace {

/// run_batch serialized as --serve-batch writes it: one JSON object per line.
std::uint64_t run_jsonl(sv::service& svc, std::istream& in, std::ostream& out) {
  return sv::run_batch(in, svc, [&](const sv::response&, std::string_view line) {
    out << line << '\n';
  });
}

} // namespace

TEST(ServeEngine, StreamEmitsOneValidJsonObjectPerLine) {
  sv::service_options opt = serial_options();
  sv::service svc(opt);
  std::istringstream in("{\"id\":\"a\",\"bench\":\"hal\"}\n"
                        "\n" // blank lines are skipped, numbering preserved
                        "{\"id\":\"b\",\"bench\":\"hal\",\"alus\":0}\n"
                        "broken\n");
  std::ostringstream out;
  EXPECT_EQ(run_jsonl(svc, in, out), 3u);
  EXPECT_EQ(svc.stats().errors, 1u);

  std::istringstream parsed(out.str());
  std::string line;
  std::vector<softsched::json_value> docs;
  while (std::getline(parsed, line)) docs.push_back(parse_json(line));
  ASSERT_EQ(docs.size(), 3u);
  EXPECT_EQ(docs[0].find("id")->as_string(), "a");
  EXPECT_TRUE(docs[0].find("feasible")->as_bool());
  ASSERT_NE(docs[0].find("start"), nullptr);
  EXPECT_EQ(static_cast<long long>(docs[0].find("start")->items().size()),
            docs[0].find("ops")->as_integer(0, 1000));
  EXPECT_EQ(docs[1].find("line")->as_integer(0, 10), 3); // blank line skipped
  EXPECT_FALSE(docs[1].find("feasible")->as_bool());
  ASSERT_NE(docs[2].find("error"), nullptr);

  // Compact mode drops the schedule arrays but stays valid JSONL.
  sv::service_options compact = opt;
  compact.emit_schedule = false;
  sv::service svc2(compact);
  std::istringstream in2("{\"id\":\"a\",\"bench\":\"hal\"}\n");
  std::ostringstream out2;
  (void)run_jsonl(svc2, in2, out2);
  const softsched::json_value doc = parse_json(out2.str());
  EXPECT_EQ(doc.find("start"), nullptr);
  EXPECT_NE(doc.find("stats"), nullptr);
}

TEST(ServeEngine, RenumberedIsomorphGetsItsOwnNumberingRegardlessOfCacheState) {
  // Regression: EWF submitted as inline .dfg text with ops declared in a
  // *different* order than the bench builder. The canonical digest unifies
  // the two, so a warm cache serves the text request from the bench
  // request's entry - the payload must still be indexed in the text
  // request's own numbering, i.e. identical to what a fresh service
  // computes for the text request alone (the cache-transparency half of
  // the determinism contract).
  const si::resource_library lib;
  const si::dfg ewf = si::make_ewf(lib);
  // Declare every op in *reverse* vertex order with no inline inputs and
  // express all dependences as explicit edge lines (legal .dfg: edge lines
  // may follow both endpoints) - a complete renumbering of the graph.
  const auto& g = ewf.graph();
  std::string permuted_text = "dfg perm\n";
  for (std::size_t i = g.vertex_count(); i-- > 0;) {
    const si::vertex_id v(static_cast<std::uint32_t>(i));
    permuted_text += "op " + std::string(g.name(v)) + " " +
                     std::string(si::kind_name(ewf.kind(v))) + "\n";
  }
  for (const si::vertex_id v : g.vertices())
    for (const si::vertex_id s : g.succs(v))
      permuted_text +=
          "edge " + std::string(g.name(v)) + " " + std::string(g.name(s)) + "\n";
  std::string escaped;
  for (const char ch : permuted_text)
    if (ch == '\n') escaped += "\\n";
    else escaped += ch;
  const std::string text_request =
      std::string(R"({"id":"t","dfg":")") + escaped + "\"}";

  // Reference: the text request alone, cold cache.
  sv::service fresh(serial_options());
  const auto alone = run_lines(fresh, {text_request});
  ASSERT_EQ(alone.size(), 1u);
  ASSERT_TRUE(alone[0].error.empty()) << alone[0].error;

  // Warmed: the bench request populates the shared cache entry first.
  sv::service warmed(serial_options());
  const auto pair =
      run_lines(warmed, {R"({"id":"b","bench":"ewf"})", text_request});
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0].key, pair[1].key); // isomorphs unify
  EXPECT_EQ(warmed.stats().computed, 1u);
  EXPECT_EQ(warmed.stats().cache_hits, 1u);
  // The text request's payload is independent of who computed the entry.
  EXPECT_EQ(alone[0].result.start_times, pair[1].result.start_times);
  EXPECT_EQ(alone[0].result.unit_of, pair[1].result.unit_of);
  EXPECT_TRUE(alone[0].result.same_schedule(pair[1].result));
  // And the two isomorphic requests agree on everything
  // numbering-independent.
  EXPECT_EQ(pair[0].result.latency, pair[1].result.latency);
}

TEST(ServeRequest, RandomOnlyFieldsRejectedOnOtherSources) {
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","seed":9})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","edge_prob":0.5})"),
               json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"dfg":"dfg t\nop a add\n","seed":1})"),
               json_error);
  // ...but they remain valid with a random source.
  EXPECT_NO_THROW(sv::parse_request_line(R"({"random":50,"seed":9,"edge_prob":0.5})"));
}

TEST(ServeRequest, SourceSignatureSeparatesNearbyEdgeProbabilities) {
  // Regression: a 6-decimal rendering collided these, silently serving one
  // random family's schedule for the other.
  const sv::request a =
      sv::parse_request_line(R"({"random":700,"seed":5,"edge_prob":0.1234564})");
  const sv::request b =
      sv::parse_request_line(R"({"random":700,"seed":5,"edge_prob":0.1234556})");
  EXPECT_NE(a.source_signature(), b.source_signature());
  const sv::request a2 =
      sv::parse_request_line(R"({"random":700,"seed":5,"edge_prob":0.1234564})");
  EXPECT_EQ(a.source_signature(), a2.source_signature());
}

TEST(ServeRequest, HostileNumericInputIsAnErrorNotUndefinedBehavior) {
  // Out-of-range doubles must surface as json_error (and, in the service,
  // as per-line error responses) - never as an out-of-range cast, which
  // the UBSan CI legs would turn into a process abort.
  EXPECT_THROW(sv::parse_request_line(R"({"random":1e30})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"random":50,"seed":1e300})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"random":50,"seed":1e18})"), json_error);
  EXPECT_THROW(sv::parse_request_line(R"({"bench":"ewf","alus":-1e25})"), json_error);
  EXPECT_NO_THROW(sv::parse_request_line(R"({"random":50,"seed":4294967296})"));

  sv::service svc(serial_options());
  const auto responses = run_lines(svc, {R"({"id":"x","random":1e30})"});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_FALSE(responses[0].error.empty());
}

TEST(ServeEngine, SizedBenchmarkNamesAreStrictAndBounded) {
  // fir<N>/iir<N> sizes are whole-token decimals, and no size may build a
  // design past the 200000-op ceiling of the "random" field: an unbounded
  // size would let one request allocate until the daemon is killed.
  sv::service svc(serial_options());
  const auto responses = run_lines(svc, {
                                            R"({"id":"ok","bench":"fir8"})",
                                            R"({"id":"junk","bench":"fir8x"})",
                                            R"({"id":"huge","bench":"fir5000000"})",
                                            R"({"id":"overflow","bench":"fir99999999999"})",
                                            R"({"id":"zero","bench":"iir0"})",
                                            R"({"id":"signed","bench":"iir-2"})",
                                            R"({"id":"bare","bench":"fir"})",
                                            R"({"id":"iirmax","bench":"iir25001"})",
                                        });
  ASSERT_EQ(responses.size(), 8u);
  EXPECT_TRUE(responses[0].error.empty()) << responses[0].error;
  EXPECT_EQ(responses[0].result.ops, 15u);
  for (std::size_t i = 1; i < responses.size(); ++i) {
    EXPECT_NE(responses[i].error.find("size must be an integer"), std::string::npos)
        << responses[i].id << ": " << responses[i].error;
  }
}

TEST(SizedBenchmark, LargestSizeStaysWithinTheOpCeiling) {
  const si::resource_library lib;
  EXPECT_NO_THROW(si::check_benchmark_name("fir100000"));
  EXPECT_NO_THROW(si::check_benchmark_name("iir25000"));
  EXPECT_THROW(si::check_benchmark_name("fir100001"), softsched::precondition_error);
  EXPECT_THROW(si::check_benchmark_name("iir25001"), softsched::precondition_error);
  EXPECT_THROW(si::check_benchmark_name("nosuch"), softsched::precondition_error);
  EXPECT_EQ(si::make_benchmark("iir3", lib).op_count(), 24u);
  EXPECT_EQ(si::make_benchmark("fir100000", lib).op_count(), 199999u);
  EXPECT_LE(si::make_benchmark("iir25000", lib).op_count(),
            static_cast<std::size_t>(si::max_design_ops));
}

TEST(ScheduleCache, OversizeReplacementKeepsResidentValue) {
  // Regression: rejecting an oversize *replacement* must not erase the
  // value already cached under the key.
  const std::size_t one = result_of(1).bytes();
  sv::schedule_cache cache(2 * one);
  cache.insert(key_of(1), result_of(7));
  cache.insert(key_of(1), result_of(8, /*pad=*/4096)); // oversize replacement
  const auto hit = cache.lookup(key_of(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->latency, 7); // original survives
  EXPECT_EQ(cache.counters().rejected_oversize, 1u);
}

// -- source memo: admitted on a design's second sighting --------------------

namespace {

/// The response as serialized with its sequence-dependent fields zeroed:
/// byte-identical strings mean byte-identical answers.
std::string payload_bytes(sv::response r) {
  r.line = 0;
  r.ms = 0;
  std::ostringstream out;
  sv::write_response_line(out, r, /*emit_schedule=*/true);
  return out.str();
}

} // namespace

TEST(ServeEngine, ReusedSourceDesignSchedulesLikeARebuild) {
  // The miss path schedules from the DFG its hash step built; it must
  // answer exactly what a fresh build answers.
  softsched::sched::run_context ctx(softsched::sched::arena_mode::off);
  for (const std::string line : {
           R"({"bench":"ewf","alus":2,"muls":2})",
           R"({"random":200,"seed":3,"backend":"list"})",
           R"({"dfg":"dfg t\nop a add\nop b mul a\nwire w 2 b\nop c add a w\n"})",
           R"({"bench":"fir16","muls":3,"mul_latency":3,"backend":"sdc-iter"})",
       }) {
    const sv::request req = sv::parse_request_line(line);
    std::optional<sv::source_design> built;
    const sv::source_info info = sv::hash_request_source(req, built);
    ASSERT_TRUE(info.error.empty()) << line << ": " << info.error;
    ASSERT_TRUE(built.has_value()) << line;
    const sv::source_info rebuilt = sv::hash_request_source(req);
    EXPECT_EQ(info.digest, rebuilt.digest) << line;
    EXPECT_EQ(info.canonical_of, rebuilt.canonical_of) << line;
    const sv::schedule_result reused =
        sv::compute_canonical_schedule(req, *built, info.canonical_of, ctx);
    EXPECT_TRUE(reused.same_schedule(sv::compute_canonical_schedule(req, info.canonical_of)))
        << line;
  }
  const sv::request bad = sv::parse_request_line(R"({"bench":"nope"})");
  std::optional<sv::source_design> built;
  EXPECT_FALSE(sv::hash_request_source(bad, built).error.empty());
  EXPECT_FALSE(built.has_value());
}

TEST(ServeMemo, DesignsAskedForOnceAreNeverAdmitted) {
  sv::service svc(serial_options());
  std::vector<std::string> lines;
  for (int seed = 1; seed <= 12; ++seed)
    lines.push_back(R"({"random":60,"seed":)" + std::to_string(seed) + "}");
  const auto responses = run_lines(svc, lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (const sv::response& r : responses) EXPECT_TRUE(r.error.empty()) << r.error;
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.memo_entries, 0u);
  EXPECT_EQ(s.memo_admitted, 0u);
  EXPECT_EQ(s.memo_hits, 0u);
  EXPECT_GT(s.memo_bytes, 0u); // the fingerprints
}

TEST(ServeMemo, SecondSightingAdmitsThirdHitsAnswersStayIdentical) {
  sv::service svc(serial_options());
  const std::string line = R"({"id":"q","random":80,"seed":9,"alus":2})";
  std::vector<std::string> answers;
  const std::size_t expected_entries[] = {0, 1, 1};
  const std::uint64_t expected_hits[] = {0, 0, 1};
  for (int sighting = 0; sighting < 3; ++sighting) {
    const auto responses = run_lines(svc, {line});
    ASSERT_EQ(responses.size(), 1u);
    ASSERT_TRUE(responses[0].error.empty()) << responses[0].error;
    answers.push_back(payload_bytes(responses[0]));
    const sv::service_stats s = svc.stats();
    EXPECT_EQ(s.memo_entries, expected_entries[sighting]) << "sighting " << sighting + 1;
    EXPECT_EQ(s.memo_admitted, expected_entries[sighting]) << "sighting " << sighting + 1;
    EXPECT_EQ(s.memo_hits, expected_hits[sighting]) << "sighting " << sighting + 1;
  }
  EXPECT_EQ(answers[0], answers[1]);
  EXPECT_EQ(answers[0], answers[2]);
  EXPECT_EQ(svc.stats().computed, 1u);
}

TEST(ServeMemo, SameSourceUnderASecondAllocationIsAdmitted) {
  sv::service svc(serial_options());
  const auto responses = run_lines(svc, {
                                            R"({"bench":"ewf","alus":1})",
                                            R"({"bench":"ewf","alus":3})",
                                        });
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_NE(responses[0].key, responses[1].key);
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.computed, 2u);
  EXPECT_EQ(s.memo_entries, 1u);
  EXPECT_EQ(s.memo_admitted, 1u);
  EXPECT_EQ(s.memo_hits, 0u);
}

TEST(ServeMemo, ByteBoundWipesMemoAndFingerprintsTogether) {
  sv::service_options opt = serial_options();
  opt.cache_bytes = 0; // the byte bound falls back to memo_min_bytes
  sv::service svc(opt);
  // Three one-op designs whose signatures carry a ~memo_min_bytes/3
  // comment each: admitted, they pass the byte bound together.
  const std::string padding(sv::service::memo_min_bytes / 3 + 1024, 'x');
  const auto big = [&](char tag) {
    return std::string(R"({"dfg":"dfg t\nop a add\n# )") + tag + padding + R"("})";
  };
  const std::string small = R"({"bench":"hal"})";

  (void)run_lines(svc, {small}); // first sighting: fingerprint only
  for (const char tag : {'a', 'b', 'c'}) (void)run_lines(svc, {big(tag), big(tag)});
  sv::service_stats s = svc.stats();
  EXPECT_EQ(s.memo_entries, 3u);
  EXPECT_EQ(s.memo_admitted, 3u);
  EXPECT_GT(s.memo_bytes, sv::service::memo_min_bytes);

  // The next miss wipes both: the small design's earlier fingerprint is
  // gone, so this is a first sighting again and nothing is admitted.
  (void)run_lines(svc, {small});
  s = svc.stats();
  EXPECT_EQ(s.memo_entries, 0u);
  EXPECT_EQ(s.memo_admitted, 3u);
  EXPECT_LT(s.memo_bytes, 1024u);

  (void)run_lines(svc, {small});
  s = svc.stats();
  EXPECT_EQ(s.memo_entries, 1u);
  EXPECT_EQ(s.memo_admitted, 4u);
}

TEST(ServeMemo, EntryBoundWipesMemoAndFingerprintsTogether) {
  sv::service svc(serial_options());
  const std::string probe = R"({"bench":"hal"})";
  (void)run_lines(svc, {probe, probe}); // admitted
  ASSERT_EQ(svc.stats().memo_entries, 1u);
  // One fingerprint per distinct one-op design, past the entry bound.
  std::string text;
  for (std::size_t i = 0; i < sv::service::memo_entry_limit; ++i)
    text += R"({"dfg":"dfg t\nop a add\n# )" + std::to_string(i) + "\"}\n";
  std::istringstream in(text);
  std::uint64_t errors = 0;
  (void)sv::run_batch(in, svc, [&](const sv::response& r, std::string_view) {
    errors += r.error.empty() ? 0 : 1;
  });
  EXPECT_EQ(errors, 0u);
  EXPECT_EQ(svc.stats().memo_entries, 1u);

  // The next miss wipes the memo with the fingerprints: the probe, once
  // resident, is now hashed again and only fingerprinted.
  (void)run_lines(svc, {R"({"bench":"ewf"})", probe});
  const sv::service_stats s = svc.stats();
  EXPECT_EQ(s.memo_entries, 0u);
  EXPECT_EQ(s.memo_admitted, 1u);
}

TEST(ServeMemo, ConcurrentSightingsOfOneSourceAdmitItOnce) {
  // Several workers race through first and second sightings of one source
  // (allocations vary, so most requests are their own flight). Exactly one
  // admission, and every answer matches a one-worker run.
  std::vector<std::string> lines;
  for (int i = 0; i < 48; ++i)
    lines.push_back(R"({"random":150,"seed":4,"alus":)" + std::to_string(1 + i % 4) +
                    R"(,"muls":)" + std::to_string(1 + i / 4 % 3) + "}");
  sv::service reference(serial_options());
  const auto expected = run_lines(reference, lines);

  for (int round = 0; round < 4; ++round) {
    sv::service_options opt;
    opt.jobs = 4;
    sv::service svc(opt);
    const auto got = run_lines(svc, lines);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(payload_bytes(got[i]), payload_bytes(expected[i])) << "line " << i;
    const sv::service_stats s = svc.stats();
    EXPECT_EQ(s.memo_entries, 1u);
    EXPECT_EQ(s.memo_admitted, 1u);
    EXPECT_LE(s.memo_hits, lines.size() - 2);
  }
}
