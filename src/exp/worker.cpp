#include "exp/worker.hpp"

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string_view>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/obs.hpp"
#include "obs/record.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace cim::exp {

const char* const kWorkerFdsEnv = "CIM_EXP_WORKER_FDS";

bool in_worker_mode() { return std::getenv(kWorkerFdsEnv) != nullptr; }

namespace {

/// Full write with EINTR retry; SIGPIPE is ignored so a dead peer surfaces
/// as EPIPE instead of killing the process.
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool write_all(int fd, const std::string& s) {
  return write_all(fd, s.data(), s.size());
}

/// Buffered line reader over a raw fd. Returns false on EOF/error with no
/// complete line pending.
bool read_line_fd(int fd, std::string& buf, std::string& out) {
  for (;;) {
    const std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      out.assign(buf, 0, nl);
      if (!out.empty() && out.back() == '\r') out.pop_back();
      buf.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    buf.append(chunk, static_cast<std::size_t>(r));
  }
}

bool read_exact_fd(int fd, std::string& buf, std::string& out,
                   std::size_t n) {
  while (buf.size() < n) {
    char chunk[4096];
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    buf.append(chunk, static_cast<std::size_t>(r));
  }
  out.assign(buf, 0, n);
  buf.erase(0, n);
  return true;
}

/// Parses one protocol line with `read`; false when it does not match.
bool parse_line(std::string_view line,
                const std::function<void(obs::record::Reader&)>& read) {
  obs::record::Reader r(line, "cim-exp-worker");
  try {
    r.next();
    read(r);
    r.end();
  } catch (const obs::record::ParseError&) {
    return false;
  }
  return true;
}

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

}  // namespace

// --- parent side -------------------------------------------------------------

bool WorkerPool::write_line(Proc& p, const std::string& line) {
  return write_all(p.to_child, line + "\n");
}

bool WorkerPool::read_line(Proc& p, std::string& out) {
  return read_line_fd(p.from_child, p.rdbuf, out);
}

bool WorkerPool::read_exact(Proc& p, std::string& out, std::size_t n) {
  return read_exact_fd(p.from_child, p.rdbuf, out, n);
}

bool WorkerPool::start(std::size_t children, std::uint64_t fingerprint) {
  if (!procs_.empty() || children == 0) return false;
  ignore_sigpipe();

  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return false;
  exe[n] = '\0';

  const std::string begin_line = "begin " + obs::record::hex16(fingerprint);

  for (std::size_t i = 0; i < children; ++i) {
    int down[2];  // parent -> child
    int up[2];    // child -> parent
    if (::pipe(down) != 0) {
      shutdown();
      return false;
    }
    if (::pipe(up) != 0) {
      ::close(down[0]);
      ::close(down[1]);
      shutdown();
      return false;
    }

    // The environment block must be assembled BEFORE fork: the parent may
    // have live thread-pool threads, so the child can only use
    // async-signal-safe calls between fork and exec.
    std::string fds_kv = std::string(kWorkerFdsEnv) + "=" +
                         std::to_string(down[0]) + "," +
                         std::to_string(up[1]);
    std::vector<char*> envp;
    const std::size_t kv_len = std::strlen(kWorkerFdsEnv);
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, kWorkerFdsEnv, kv_len) == 0 && (*e)[kv_len] == '=')
        continue;
      envp.push_back(*e);
    }
    envp.push_back(fds_kv.data());
    envp.push_back(nullptr);
    char arg_tag[] = "--cim-exp-worker";
    char* argv[] = {exe, arg_tag, nullptr};

    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(down[0]);
      ::close(down[1]);
      ::close(up[0]);
      ::close(up[1]);
      shutdown();
      return false;
    }
    if (pid == 0) {
      // Child: silence stdout (the parent owns the single BENCH_JSON line),
      // drop parent-side pipe ends, exec ourselves.
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        ::dup2(devnull, STDOUT_FILENO);
        ::close(devnull);
      }
      ::close(down[1]);
      ::close(up[0]);
      ::execve(exe, argv, envp.data());
      ::_exit(127);
    }

    // Parent: keep only its ends, and mark them close-on-exec so later
    // children don't inherit handles on this child's pipes.
    ::close(down[0]);
    ::close(up[1]);
    ::fcntl(down[1], F_SETFD, FD_CLOEXEC);
    ::fcntl(up[0], F_SETFD, FD_CLOEXEC);
    Proc p;
    p.pid = pid;
    p.to_child = down[1];
    p.from_child = up[0];
    procs_.push_back(std::move(p));
  }

  // Handshake every child; any nack/EOF aborts the whole pool — mixed
  // in-process/worker execution would still be correct, but all-or-nothing
  // keeps the failure mode easy to reason about.
  for (Proc& p : procs_) {
    std::string reply;
    if (!write_line(p, begin_line) || !read_line(p, reply) ||
        reply != "ack") {
      shutdown();
      return false;
    }
  }
  return true;
}

bool WorkerPool::send_tasks(std::size_t child,
                            const std::vector<WorkerTask>& tasks) {
  if (child >= procs_.size()) return false;
  std::string msg;
  msg.reserve(tasks.size() * 32 + 8);
  for (const WorkerTask& t : tasks) {
    msg += "task ";
    msg += std::to_string(t.cell);
    msg += ' ';
    msg += std::to_string(t.rep_begin);
    msg += ' ';
    msg += std::to_string(t.rep_count);
    msg += '\n';
  }
  msg += "run\n";
  return write_all(procs_[child].to_child, msg);
}

bool WorkerPool::read_stats(std::size_t child, std::size_t expect,
                            std::vector<obs::StreamStat>& out) {
  if (child >= procs_.size()) return false;
  Proc& p = procs_[child];
  out.clear();
  out.reserve(expect);
  std::string line;
  for (std::size_t i = 0; i < expect; ++i) {
    obs::StreamStat st;
    const bool ok = read_line(p, line) &&
                    parse_line(line, [&](obs::record::Reader& r) {
                      st.n = r.expect("stat").u64("n");
                      for (double* f : {&st.mean, &st.m2, &st.min, &st.max})
                        *f = r.f64("stat field");
                    });
    if (!ok) return false;
    out.push_back(st);
  }
  return read_line(p, line) && line == "done";
}

bool WorkerPool::collect_snapshot(std::size_t child, std::string& json_out) {
  if (child >= procs_.size()) return false;
  Proc& p = procs_[child];
  if (!write_line(p, "snapshot")) return false;
  std::string line;
  std::size_t len = 0;
  if (!read_line(p, line) || !parse_line(line, [&](obs::record::Reader& r) {
        r.expect("snapshot");
        len = r.u64("length");
      }))
    return false;
  if (!read_exact(p, json_out, len)) return false;
  return read_line(p, line) && line.empty();
}

void WorkerPool::end_campaign() {
  for (Proc& p : procs_)
    if (p.to_child >= 0) write_all(p.to_child, std::string("end\n"));
}

void WorkerPool::shutdown() {
  for (Proc& p : procs_) {
    if (p.to_child >= 0) {
      write_all(p.to_child, std::string("quit\n"));
      ::close(p.to_child);  // EOF backs up the quit if the pipe already broke
      p.to_child = -1;
    }
    if (p.from_child >= 0) {
      ::close(p.from_child);
      p.from_child = -1;
    }
    if (p.pid > 0) {
      int status = 0;
      while (::waitpid(p.pid, &status, 0) < 0 && errno == EINTR) {
      }
      p.pid = -1;
    }
  }
  procs_.clear();
}

// --- child side --------------------------------------------------------------

[[noreturn]] void serve_worker(
    std::uint64_t fingerprint,
    const std::function<obs::StreamStat(const WorkerTask&)>& run_block) {
  ignore_sigpipe();
  // "<read_fd>,<write_fd>", as WorkerPool::start sets it.
  const char* env = std::getenv(kWorkerFdsEnv);
  const std::string_view fds = env != nullptr ? env : "";
  const std::size_t comma = fds.find(',');
  const auto rd = obs::record::u64(fds.substr(0, comma), INT_MAX);
  const auto wr = comma == fds.npos
                      ? std::nullopt
                      : obs::record::u64(fds.substr(comma + 1), INT_MAX);
  if (!rd || !wr) std::_Exit(125);
  const int rfd = static_cast<int>(*rd);
  const int wfd = static_cast<int>(*wr);

  // Telemetry from the host main's setup phase is the parent's business;
  // the snapshot shipped back should cover exactly the trials run here.
  obs::Registry::global().reset();

  std::string rdbuf;
  std::string line;
  std::vector<WorkerTask> tasks;
  bool accepted = false;

  while (read_line_fd(rfd, rdbuf, line)) {
    if (line.rfind("begin ", 0) == 0) {
      std::uint64_t fp = 0;
      accepted = parse_line(line,
                            [&](obs::record::Reader& r) {
                              r.expect("begin");
                              fp = r.hex64("fingerprint");
                            }) &&
                 fp == fingerprint;
      tasks.clear();
      if (!write_all(wfd, std::string(accepted ? "ack\n" : "nack\n"))) break;
    } else if (line.rfind("task ", 0) == 0) {
      if (!accepted) continue;
      WorkerTask t;
      if (parse_line(line, [&](obs::record::Reader& r) {
            r.expect("task");
            t.cell = r.u64("cell");
            t.rep_begin = r.u64("rep_begin");
            t.rep_count = r.u64("rep_count");
          }))
        tasks.push_back(t);
    } else if (line == "run") {
      if (!accepted) continue;
      std::vector<obs::StreamStat> results(tasks.size());
      util::ThreadPool::global().parallel_for(
          0, tasks.size(),
          [&](std::size_t i) { results[i] = run_block(tasks[i]); });
      std::string msg;
      msg.reserve(results.size() * 96 + 8);
      for (const obs::StreamStat& st : results) {
        msg += "stat " + std::to_string(st.n);
        for (const double v : {st.mean, st.m2, st.min, st.max})
          msg += ' ' + obs::record::g17(v);
        msg += '\n';
      }
      msg += "done\n";
      tasks.clear();
      if (!write_all(wfd, msg)) break;
    } else if (line == "snapshot") {
      std::ostringstream os;
      obs::write_snapshot_json(os, obs::Registry::global().snapshot());
      const std::string json = os.str();
      std::string msg = "snapshot " + std::to_string(json.size()) + "\n";
      msg += json;
      msg += '\n';
      if (!write_all(wfd, msg)) break;
    } else if (line == "end") {
      accepted = false;
      tasks.clear();
    } else if (line == "quit") {
      break;
    }
    // Unknown lines are skipped: forward compatibility for later protocol
    // revisions driving an older worker.
  }
  std::_Exit(0);
}

}  // namespace cim::exp
