// options.h - the one place the serving flag surface is parsed and
// validated. The CLI fills a serve_flags with raw flag values and
// everything downstream - daemon_options (whose service part also backs
// --serve-batch) and the listen spec - is derived here, behind a single
// validation/error path (validate_serve_flags) shared by the CLI and the
// tests that pin its error messages. New transport flags land here once,
// not once per mode.
#pragma once

#include <string>

#include "serve/daemon.h"
#include "serve/socket.h"

namespace softsched::serve {

/// Raw values of every serving-related CLI flag, exactly as typed
/// (defaults = flag defaults). docs/SERVING.md documents the surface.
struct serve_flags {
  int jobs = 0;               ///< --jobs (0 = hardware)
  int cache_mb = 64;          ///< --cache-mb
  int serve_queue = 256;      ///< --serve-queue (also the --serve-batch window)
  int disk_cache_mb = 0;      ///< --disk-cache-mb (0 = disk tier off)
  int max_conns = 64;         ///< --max-conns (socket transports only)
  bool serve_ordered = false; ///< --serve-ordered
  bool serve_compact = false; ///< --serve-compact
  std::string cache_dir;      ///< --cache-dir (empty = disk tier off)
  std::string listen = "stdio"; ///< --listen (stdio | tcp:HOST:PORT | unix:PATH)
  std::string arena = "on";   ///< --arena (on | off | <block bytes>)
};

/// --arena, parsed: on (default block size), off (heap baseline), or a
/// positive byte count selecting the arena block size. Shared by the serve
/// surface and the CLI's single-run/compare modes so the grammar exists
/// exactly once.
struct arena_flag {
  bool enabled = true;
  std::size_t block_bytes = 0; ///< 0 = util::arena::default_block_bytes
};

/// Throws precondition_error on anything but on | off | positive integer.
[[nodiscard]] arena_flag parse_arena_flag(const std::string& value);

/// The single error path: throws precondition_error naming the offending
/// flag for any out-of-range value or malformed --listen spec. Both
/// derivation functions below call it, so callers may rely on "derived
/// options are validated options".
void validate_serve_flags(const serve_flags& flags);

/// --listen, parsed (and validated as part of validate_serve_flags).
[[nodiscard]] listen_spec listen_from_flags(const serve_flags& flags);

/// Daemon options (--serve), transport-independent: service knobs,
/// ordering, frame limits, the --max-conns bound. Its `service` part is
/// also what --serve-batch runs on. SOFTSCHED_INJECT is consumed here in
/// full (slot/cache/io/conn).
[[nodiscard]] daemon_options daemon_options_from_flags(const serve_flags& flags);

} // namespace softsched::serve
