#ifndef RAV_PERFBENCH_SERVER_H_
#define RAV_PERFBENCH_SERVER_H_

// A rav_serve child process driven from outside: spawned with
// `--listen 127.0.0.1:0`, its port scraped from stderr, its CPU and peak
// RSS read from /proc, and its drain (SIGTERM -> exit 5) asserted.

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace rav::perfbench {

class ServerProcess {
 public:
  // Spawns `binary --listen 127.0.0.1:0 <flags...>` and waits for the
  // "listening on" line. nullptr (with *error set) on failure.
  static std::unique_ptr<ServerProcess> Start(
      const std::string& binary, const std::vector<std::string>& flags,
      std::string* error);

  // Kills and reaps a server that was not drained.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  // User + system CPU seconds of every server thread so far (-1 on error).
  double CpuSeconds() const;
  // VmHWM in MiB (-1 on error).
  double PeakRssMb() const;

  // SIGTERM, then waits up to `timeout_s` for the exit. Returns the exit
  // code, or -1 when the process was killed by a signal or timed out (it
  // is then SIGKILLed and reaped).
  int Drain(double timeout_s);

 private:
  ServerProcess() = default;
  void ReadStderr(int timeout_ms);

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
  std::string stderr_;
};

}  // namespace rav::perfbench

#endif  // RAV_PERFBENCH_SERVER_H_
