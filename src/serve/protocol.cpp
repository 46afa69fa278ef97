#include "serve/protocol.h"

#include <sstream>

#include "util/json.h"
#include "util/json_parse.h"

namespace softsched::serve {

control_frame classify_control(std::string_view payload) {
  control_frame frame;
  try {
    const json_value v = parse_json(std::string(payload));
    const json_value* member = v.find("op");
    if (member == nullptr) return frame;
    frame.kind = control_kind::unknown;
    if (member->is_string()) {
      frame.op = member->as_string();
      if (frame.op == "hello") frame.kind = control_kind::hello;
      else if (frame.op == "stats") frame.kind = control_kind::stats;
      else if (frame.op == "shutdown") frame.kind = control_kind::shutdown;
    }
  } catch (const json_error&) {
    // Unparseable payloads are not control frames; the service's strict
    // request parser owns their error response.
  }
  return frame;
}

std::string render_hello() {
  std::ostringstream oss;
  json_writer j(oss, /*compact=*/true);
  j.begin_object();
  j.member("op", "hello");
  j.member("v", wire_version);
  j.key("transports");
  j.begin_array();
  j.value("stdio");
  j.value("tcp");
  j.value("unix");
  j.end_array();
  j.key("caps");
  j.begin_array();
  j.value("hello");
  j.value("stats");
  j.value("shutdown");
  j.value("ordered");
  j.value("streaming");
  j.value("shed");
  j.value("dedup");
  j.value("disk_cache");
  j.end_array();
  j.end_object();
  return std::move(oss).str();
}

std::string render_unknown_op(const control_frame& frame) {
  std::ostringstream oss;
  json_writer j(oss, /*compact=*/true);
  j.begin_object();
  j.member("id", "control");
  j.member("error", "unknown_op");
  if (!frame.op.empty()) j.member("op", frame.op);
  j.member("v", wire_version);
  j.end_object();
  return std::move(oss).str();
}

std::string render_stats(const service_stats& s,
                         const connection_counters_snapshot& conns,
                         const connection_view& conn) {
  std::ostringstream oss;
  json_writer j(oss, /*compact=*/true);
  j.begin_object();
  j.member("op", "stats");
  j.member("v", wire_version);
  j.member("uptime_ms", s.uptime_ms);
  j.member("qps", s.qps);
  j.member("p50_ms", s.p50_ms);
  j.member("p95_ms", s.p95_ms);
  j.member("p99_ms", s.p99_ms);
  j.member("queue_depth", s.queue_depth);
  j.member("peak_queue_depth", s.peak_queue_depth);
  j.member("hit_rate", s.hit_rate);
  j.member("submitted", s.submitted);
  j.member("admitted", s.admitted);
  j.member("overloaded", s.overloaded);
  j.member("completed", s.completed);
  j.member("errors", s.errors);
  j.member("computed", s.computed);
  j.member("cache_hits", s.cache_hits);
  j.member("deduped", s.deduped);
  j.key("conns");
  j.begin_object();
  j.member("transport", conns.transport);
  j.member("accepted", conns.accepted);
  j.member("active", conns.active);
  j.member("shed", conns.shed);
  j.member("closed", conns.closed);
  j.member("transport_errors", conns.transport_errors);
  j.member("faulted", conns.faulted);
  j.member("bytes_in", conns.bytes_in);
  j.member("bytes_out", conns.bytes_out);
  j.end_object();
  j.key("conn");
  j.begin_object();
  j.member("transport", conn.transport);
  j.member("frames", conn.frames);
  j.member("requests", conn.requests);
  j.member("bytes_in", conn.bytes_in);
  j.member("bytes_out", conn.bytes_out);
  j.end_object();
  j.key("cache");
  j.begin_object();
  j.member("entries", s.cache_entries);
  j.member("bytes", s.cache_bytes);
  j.member("evictions", s.cache_evictions);
  j.member("rejected_oversize", s.cache_rejected_oversize);
  j.end_object();
  j.key("disk");
  j.begin_object();
  j.member("enabled", s.disk_enabled);
  j.member("degraded", s.disk_degraded);
  j.member("hits", s.disk_hits);
  j.member("misses", s.disk_misses);
  j.member("writes", s.disk_writes);
  j.member("evictions", s.disk_evictions);
  j.member("corrupt_dropped", s.disk_corrupt_dropped);
  j.member("io_errors", s.disk_io_errors);
  j.member("queue_dropped", s.disk_queue_dropped);
  j.member("flushed", s.disk_flushed);
  j.member("entries", s.disk_entries);
  j.member("bytes", s.disk_bytes);
  j.member("recovery_scan_ms", s.disk_recovery_scan_ms);
  j.member("recovered_entries", s.disk_recovered_entries);
  j.end_object();
  j.end_object();
  return std::move(oss).str();
}

std::string render_connection_shed(double retry_after_ms) {
  std::ostringstream oss;
  json_writer j(oss, /*compact=*/true);
  j.begin_object();
  j.member("id", "control");
  j.member("error", "too_many_connections");
  j.member("retry_after_ms", retry_after_ms);
  j.end_object();
  return std::move(oss).str();
}

std::string render_shutdown_ack(std::size_t flushed) {
  std::ostringstream oss;
  json_writer j(oss, /*compact=*/true);
  j.begin_object();
  j.member("op", "shutdown");
  j.member("drained", true);
  j.member("flushed", flushed);
  j.end_object();
  return std::move(oss).str();
}

} // namespace softsched::serve
