#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "stats.h"

namespace rav::perfbench {

namespace {

double CpuSecondsSelf() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct Pending {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  size_t conn = 0;
  Expected expected;
};

constexpr size_t kMaxMismatchReports = 10;
// How long answers may still arrive after the sending window closes.
constexpr int64_t kDrainTimeoutNs = 60'000'000'000LL;

}  // namespace

std::optional<LoadClient> LoadClient::Connect(int port, int connections,
                                              std::string* error) {
  LoadClient client;
  for (int i = 0; i < connections; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = "socket failed";
      return std::nullopt;
    }
    client.conns_.push_back(Conn{fd});
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *error = "connect to port " + std::to_string(port) + " failed";
      return std::nullopt;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  return client;
}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
}

template <typename RequestAt>
LoadResult LoadClient::Drive(const RequestAt& request_at, size_t limit,
                             const LoadOptions& options, bool timed) {
  LoadResult result;
  std::unordered_map<std::string, Pending> pending;
  const size_t n_conns =
      std::min(conns_.size(), static_cast<size_t>(std::max(1, options.connections)));
  const int64_t start = NowNs();
  const int64_t end =
      std::isinf(options.seconds)
          ? std::numeric_limits<int64_t>::max() / 2
          : start + static_cast<int64_t>(options.seconds * 1e9);
  const double period_ns =
      options.open_loop ? 1e9 / std::max(options.rate_rps, 1e-9) : 0;
  auto due_of = [&](size_t i) {
    return start + static_cast<int64_t>(static_cast<double>(i) * period_ns);
  };
  const double cpu_start = CpuSecondsSelf();
  result.start_ns = start;
  int boundaries_done = 0;
  auto boundary_due = [&](int k) {
    return start + static_cast<int64_t>(options.seconds * 1e9 * k /
                                        std::max(1, options.slices));
  };
  if (options.on_boundary) options.on_boundary();
  int64_t last_answer = start;
  size_t next = 0;
  bool broken = false;

  auto send = [&](size_t conn_index, int64_t due, int64_t now) {
    Request request = request_at(next++);
    Conn& c = conns_[conn_index];
    c.out.append(request.line);
    c.out.push_back('\n');
    ++c.outstanding;
    ++result.attempted;
    if (options.open_loop) result.late_us.push_back((now - due) / 1e3);
    pending.emplace(request.id,
                    Pending{due, now, conn_index, std::move(request.expected)});
  };

  auto on_line = [&](const std::string& line, int64_t now) {
    last_answer = now;
    auto fail = [&](const std::string& why) {
      ++result.failed;
      if (result.mismatches.size() < kMaxMismatchReports) {
        result.mismatches.push_back(why);
      }
    };
    Result<Json> parsed = Json::Parse(line);
    if (!parsed.ok() || !parsed->is_object()) {
      fail("unparseable answer: " + line.substr(0, 200));
      return;
    }
    const Json* id = parsed->Find("id");
    auto it = (id != nullptr && id->is_string()) ? pending.find(id->string_value())
                                                 : pending.end();
    if (it == pending.end()) {
      fail("answer for an unknown id: " + line.substr(0, 200));
      return;
    }
    const Pending p = std::move(it->second);
    pending.erase(it);
    --conns_[p.conn].outstanding;
    const Json* kind = parsed->Find("error_kind");
    if (kind != nullptr && kind->is_string() &&
        kind->string_value() == "overloaded") {
      ++result.shed;
      fail("request " + id->string_value() + " shed");
      return;
    }
    ++result.answered_by_service;
    if (const Json* hit = parsed->Find("cache_hit"); hit != nullptr) {
      ++(hit->bool_value() ? result.cache_hits : result.cache_misses);
    }
    if (std::optional<std::string> mismatch = CheckResponse(p.expected, *parsed)) {
      fail("request " + id->string_value() + ": " + *mismatch);
      return;
    }
    ++result.ok;
    if (timed) result.completions.emplace_back(now, (now - p.due_ns) / 1e6);
    const Json* wall = parsed->Find("wall_ms");
    if (wall != nullptr && wall->is_number()) {
      result.overhead_us.push_back((now - p.sent_ns) / 1e3 -
                                   wall->number_value() * 1e3);
    }
  };

  std::vector<pollfd> fds(n_conns);
  for (;;) {
    int64_t now = NowNs();
    while (options.on_boundary && boundaries_done < options.slices &&
           now >= boundary_due(boundaries_done + 1)) {
      ++boundaries_done;
      options.on_boundary();
    }
    const bool sending = !broken && next < limit && now < end;
    if (sending) {
      if (options.open_loop) {
        while (next < limit && due_of(next) <= now && due_of(next) < end) {
          send(next % n_conns, due_of(next), now);
        }
      } else {
        for (size_t i = 0; i < n_conns && next < limit; ++i) {
          while (next < limit &&
                 conns_[i].outstanding < static_cast<size_t>(options.depth)) {
            send(i, now, now);
          }
        }
      }
    } else if (pending.empty()) {
      break;
    }
    if (broken || (now > end && now - end > kDrainTimeoutNs)) {
      break;
    }
    int64_t wait_ns = 10'000'000;
    if (options.open_loop && sending && next < limit) {
      wait_ns = std::clamp<int64_t>(due_of(next) - now, 0, wait_ns);
    }
    for (size_t i = 0; i < n_conns; ++i) {
      const Conn& c = conns_[i];
      fds[i] = pollfd{c.fd,
                      static_cast<short>(POLLIN | (c.out_offset < c.out.size()
                                                       ? POLLOUT
                                                       : 0)),
                      0};
    }
    // Try to flush before sleeping: most writes complete immediately.
    for (size_t i = 0; i < n_conns; ++i) {
      Conn& c = conns_[i];
      while (c.out_offset < c.out.size()) {
        const ssize_t w = write(c.fd, c.out.data() + c.out_offset,
                                c.out.size() - c.out_offset);
        if (w <= 0) break;
        c.out_offset += static_cast<size_t>(w);
      }
      if (c.out_offset == c.out.size()) {
        c.out.clear();
        c.out_offset = 0;
        fds[i].events = POLLIN;
      }
    }
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    if (ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR) {
      broken = true;
      continue;
    }
    for (size_t i = 0; i < n_conns; ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns_[i];
      char buf[65536];
      for (;;) {
        const ssize_t r = read(c.fd, buf, sizeof(buf));
        if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          broken = true;  // the server closed a connection mid-run
          break;
        }
        if (r < 0) break;
        c.in.append(buf, static_cast<size_t>(r));
      }
      size_t begin = 0;
      for (size_t eol; (eol = c.in.find('\n', begin)) != std::string::npos;
           begin = eol + 1) {
        on_line(c.in.substr(begin, eol - begin), NowNs());
      }
      c.in.erase(0, begin);
    }
  }
  result.failed += pending.size();  // never answered
  for (const auto& [id, p] : pending) {
    if (result.mismatches.size() >= kMaxMismatchReports) break;
    result.mismatches.push_back("request " + id + " was never answered");
  }
  result.elapsed_s = (last_answer - start) / 1e9;
  result.client_cpu_s = CpuSecondsSelf() - cpu_start;
  return result;
}

bool LoadClient::RunSequential(const std::vector<Request>& requests,
                               LoadResult* result) {
  LoadOptions options;
  options.connections = 1;
  options.seconds = std::numeric_limits<double>::infinity();
  *result = Drive([&](size_t i) { return requests[i]; }, requests.size(),
                  options, /*timed=*/false);
  return result->failed == 0 && result->ok == requests.size();
}

LoadResult LoadClient::RunTimed(const RequestStream& stream,
                                const LoadOptions& options) {
  return Drive([&](size_t i) { return stream.Timed(options.first_index + i); },
               std::numeric_limits<size_t>::max(), options, /*timed=*/true);
}

std::optional<Json> LoadClient::Stats() {
  Conn& c = conns_[0];
  c.out = "{\"id\":\"stats\",\"op\":\"stats\"}\n";
  c.out_offset = 0;
  const int64_t deadline = NowNs() + 10'000'000'000LL;
  while (NowNs() < deadline) {
    while (c.out_offset < c.out.size()) {
      const ssize_t w = write(c.fd, c.out.data() + c.out_offset,
                              c.out.size() - c.out_offset);
      if (w <= 0) break;
      c.out_offset += static_cast<size_t>(w);
    }
    pollfd pfd{c.fd, POLLIN, 0};
    poll(&pfd, 1, 50);
    char buf[65536];
    const ssize_t r = read(c.fd, buf, sizeof(buf));
    if (r > 0) c.in.append(buf, static_cast<size_t>(r));
    const size_t eol = c.in.find('\n');
    if (eol == std::string::npos) continue;
    Result<Json> parsed = Json::Parse(c.in.substr(0, eol));
    c.in.erase(0, eol + 1);
    c.out.clear();
    c.out_offset = 0;
    const Json* details = parsed.ok() ? parsed->Find("details") : nullptr;
    if (details == nullptr || !details->is_object()) return std::nullopt;
    return *details;
  }
  return std::nullopt;
}

}  // namespace rav::perfbench
