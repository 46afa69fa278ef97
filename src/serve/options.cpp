#include "serve/options.h"

#include "util/check.h"

namespace softsched::serve {

arena_flag parse_arena_flag(const std::string& value) {
  if (value == "on") return {true, 0};
  if (value == "off") return {false, 0};
  // A user-facing flag value, not an internal invariant: the message is the
  // whole error, without SOFTSCHED_EXPECT's file:line prefix.
  const auto reject = [&] {
    throw precondition_error(
        "--arena must be on, off, or a positive block byte count, got '" + value + "'");
  };
  std::size_t bytes = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') reject();
    bytes = bytes * 10 + static_cast<std::size_t>(c - '0');
  }
  if (value.empty() || bytes == 0) reject();
  return {true, bytes};
}

void validate_serve_flags(const serve_flags& flags) {
  (void)parse_arena_flag(flags.arena); // throws on a malformed value
  SOFTSCHED_EXPECT(flags.cache_mb >= 0, "--cache-mb must be >= 0");
  SOFTSCHED_EXPECT(flags.disk_cache_mb >= 0, "--disk-cache-mb must be >= 0");
  SOFTSCHED_EXPECT(flags.serve_queue >= 1, "--serve-queue must be >= 1");
  SOFTSCHED_EXPECT(flags.max_conns >= 1, "--max-conns must be >= 1");
  (void)listen_spec::parse(flags.listen); // throws on a malformed spec
}

listen_spec listen_from_flags(const serve_flags& flags) {
  validate_serve_flags(flags);
  return listen_spec::parse(flags.listen);
}

daemon_options daemon_options_from_flags(const serve_flags& flags) {
  validate_serve_flags(flags);
  daemon_options opt;
  opt.service.jobs = flags.jobs;
  opt.service.cache_bytes = static_cast<std::size_t>(flags.cache_mb) << 20;
  opt.service.queue_capacity = static_cast<std::size_t>(flags.serve_queue);
  opt.service.emit_schedule = !flags.serve_compact;
  opt.service.faults = fault_plan::from_env();
  opt.service.cache_dir = flags.cache_dir;
  opt.service.disk_cache_bytes = static_cast<std::size_t>(flags.disk_cache_mb) << 20;
  const arena_flag arena = parse_arena_flag(flags.arena);
  opt.service.arena = arena.enabled;
  opt.service.arena_block_bytes = arena.block_bytes;
  opt.ordered = flags.serve_ordered;
  opt.max_connections = static_cast<std::size_t>(flags.max_conns);
  return opt;
}

} // namespace softsched::serve
