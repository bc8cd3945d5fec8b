#ifndef RAV_PERFBENCH_LOADGEN_H_
#define RAV_PERFBENCH_LOADGEN_H_

// The socket load generator: one thread, at most four non-blocking
// loopback connections, one poll loop. A closed loop keeps `depth`
// requests in flight per connection and times each from its send; an open
// loop sends on a fixed schedule whatever the server does and times each
// request from when it was due.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/report.h"
#include "stream.h"

namespace rav::perfbench {

struct LoadOptions {
  bool open_loop = false;
  int connections = 1;
  int depth = 1;         // closed loop: requests kept in flight per connection
  double rate_rps = 0;   // open loop only
  double seconds = 1;    // sending window
  size_t first_index = 0;  // RunTimed: the stream index of the first request
  // The window is cut into `slices` equal parts; `on_boundary` runs at the
  // start of the window and at the end of every slice.
  int slices = 1;
  std::function<void()> on_boundary;
};

struct LoadResult {
  size_t attempted = 0;  // requests sent in the window
  size_t ok = 0;         // answered ok and as the oracle expects
  size_t failed = 0;     // not ok, shed, unanswered, or mismatched
  size_t shed = 0;       // error_kind "overloaded"
  std::vector<double> overhead_us;  // round trip minus the server's wall_ms
  std::vector<double> late_us;      // open loop: send time minus due time
  double elapsed_s = 0;  // window start to the last answer
  int64_t start_ns = 0;  // window start (stats.h NowNs clock)
  // (answer time, latency) of every ok timed request, in answer order.
  std::vector<std::pair<int64_t, double>> completions;
  double client_cpu_s = 0;
  // Client-side tally of cache_hit flags over every answered query.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  size_t answered_by_service = 0;  // answers that went through Handle
  std::vector<std::string> mismatches;
};

class LoadClient {
 public:
  // Connects `connections` sockets to 127.0.0.1:port.
  static std::optional<LoadClient> Connect(int port, int connections,
                                           std::string* error);
  LoadClient(LoadClient&&) = default;
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;
  // Swaps, so `other` closes the sockets this client held.
  LoadClient& operator=(LoadClient&& other) noexcept {
    conns_.swap(other.conns_);
    return *this;
  }
  ~LoadClient();  // closes the sockets

  // Sends `requests` one at a time on the first connection and checks
  // every answer (the warm-up). Tallies into `result`.
  bool RunSequential(const std::vector<Request>& requests, LoadResult* result);

  // The timed phase over the stream's timed requests.
  LoadResult RunTimed(const RequestStream& stream, const LoadOptions& options);

  // The service counters (the `stats` op), or nullopt.
  std::optional<Json> Stats();

 private:
  struct Conn {
    int fd = -1;
    std::string out;  // unsent bytes from out_offset on
    size_t out_offset = 0;
    std::string in;   // bytes of an incomplete answer line
    size_t outstanding = 0;
  };
  LoadClient() = default;

  // The one event loop behind both phases: requests [0, limit) from
  // `request_at`, closed or open loop per `options`.
  template <typename RequestAt>
  LoadResult Drive(const RequestAt& request_at, size_t limit,
                   const LoadOptions& options, bool timed);

  std::vector<Conn> conns_;
};

}  // namespace rav::perfbench

#endif  // RAV_PERFBENCH_LOADGEN_H_
