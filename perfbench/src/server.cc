#include "server.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "stats.h"

namespace rav::perfbench {

std::unique_ptr<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& flags,
    std::string* error) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    *error = "pipe failed";
    return nullptr;
  }
  std::vector<std::string> args = {binary, "--listen", "127.0.0.1:0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = fork();
  if (pid < 0) {
    *error = "fork failed";
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return nullptr;
  }
  if (pid == 0) {
    const int null_fd = open("/dev/null", O_RDWR);
    dup2(null_fd, 0);
    dup2(null_fd, 1);
    dup2(pipe_fds[1], 2);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    close(null_fd);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  std::unique_ptr<ServerProcess> server(new ServerProcess());
  server->pid_ = pid;
  server->stderr_fd_ = pipe_fds[0];
  fcntl(server->stderr_fd_, F_SETFL, O_NONBLOCK);

  const std::string marker = "listening on ";
  const int64_t deadline = NowNs() + 30'000'000'000LL;
  while (NowNs() < deadline) {
    server->ReadStderr(100);
    const size_t at = server->stderr_.find(marker);
    const size_t eol = at == std::string::npos
                           ? std::string::npos
                           : server->stderr_.find('\n', at);
    if (eol != std::string::npos) {
      const std::string endpoint =
          server->stderr_.substr(at + marker.size(), eol - at - marker.size());
      const size_t colon = endpoint.rfind(':');
      server->port_ = colon == std::string::npos
                          ? 0
                          : std::atoi(endpoint.c_str() + colon + 1);
      if (server->port_ <= 0) {
        *error = "cannot parse the port from: " + endpoint;
        return nullptr;
      }
      return server;
    }
    int status = 0;
    if (waitpid(pid, &status, WNOHANG) == pid) {
      server->pid_ = -1;
      *error = "rav_serve exited before listening: " + server->stderr_;
      return nullptr;
    }
  }
  *error = "rav_serve did not report a port: " + server->stderr_;
  return nullptr;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
  }
  if (stderr_fd_ >= 0) close(stderr_fd_);
}

void ServerProcess::ReadStderr(int timeout_ms) {
  pollfd pfd{stderr_fd_, POLLIN, 0};
  if (poll(&pfd, 1, timeout_ms) <= 0) return;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(stderr_fd_, buf, sizeof(buf));
    if (n <= 0) return;
    stderr_.append(buf, static_cast<size_t>(n));
  }
}

double ServerProcess::CpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return -1;
  std::istringstream fields(text.substr(close_paren + 2));
  std::string field;
  long long utime = -1;
  long long stime = -1;
  for (int i = 3; fields >> field; ++i) {
    if (i == 14) utime = std::atoll(field.c_str());
    if (i == 15) {
      stime = std::atoll(field.c_str());
      break;
    }
  }
  if (utime < 0 || stime < 0) return -1;
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return -1;
}

int ServerProcess::Drain(double timeout_s) {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(timeout_s * 1e9);
  int status = 0;
  while (NowNs() < deadline) {
    ReadStderr(10);
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      ReadStderr(0);
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, &status, 0);
  pid_ = -1;
  return -1;
}

}  // namespace rav::perfbench
