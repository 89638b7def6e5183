#include "isolate.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <exception>
#include <sstream>

#include "util/metrics.h"

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr OpClass kClasses[] = {OpClass::kRead, OpClass::kWrite, OpClass::kTick};

/// Caps on one repetition's child: a healthy one peaks near 300 MiB of
/// RSS and ends within seconds.
constexpr rlim_t kChildAddressSpace = rlim_t{4} << 30;
constexpr unsigned kChildSeconds = 60;

RepResult crashed(const std::string& why) {
  RepResult r;
  r.attempted = 1;
  r.failed = 1;
  r.failures.push_back("repetition process " + why);
  return r;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::string read_all(int fd) {
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

// One record per line, tagged by its first token:
//   S <bulk> <setup_s> <gc_wall_s> <client_s> <timed_s> <client_ops> <attempted>
//     <failed> <gc_weight_per_reclaimed> <floating> <rss_mb>
//   R <min> <max> <bucket count>...   (reclaim latency histogram)
//   L <count> <ms>...          (one line per op class, in kClasses order)
//   F <failure text>
//   P <fingerprint key> <value>
//   Y <layer metric> <value>
//   H <phase> <figure> <value>
std::string serialize(const RepResult& r) {
  std::string out = "S " + std::to_string(r.bulk ? 1 : 0) + " " + num(r.setup_s) + " " + num(r.gc_wall_s) + " " +
                    num(r.client_s) + " " + num(r.timed_s) + " " +
                    std::to_string(r.client_ops) + " " +
                    std::to_string(r.attempted) + " " + std::to_string(r.failed) +
                    " " + num(r.gc_weight_per_reclaimed) + " " +
                    num(r.floating_garbage) + " " + num(r.peak_rss_mb) + "\n";
  out += "R " + std::to_string(r.reclaim_latency_min) + " " +
         std::to_string(r.reclaim_latency_max);
  for (std::uint64_t b : r.reclaim_latency_buckets) out += " " + std::to_string(b);
  out += "\n";
  for (OpClass c : kClasses) {
    out += "L " + std::to_string(r.latency.count(c));
    for (double v : r.latency.samples(c)) out += " " + num(v);
    out += "\n";
  }
  for (const auto& f : r.failures) {
    std::string line = f;
    for (char& ch : line) {
      if (ch == '\n') ch = ' ';
    }
    out += "F " + line + "\n";
  }
  for (const auto& [k, v] : r.fingerprint) out += "P " + k + " " + std::to_string(v) + "\n";
  for (const auto& [k, v] : r.layers) out += "Y " + k + " " + num(v) + "\n";
  for (const auto& [phase, figures] : r.phases) {
    for (const auto& [k, v] : figures) out += "H " + phase + " " + k + " " + num(v) + "\n";
  }
  return out;
}

RepResult deserialize(const std::string& text) {
  RepResult r;
  std::istringstream in(text);
  std::string line;
  std::size_t cls = 0;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    std::istringstream f(line.substr(2));
    switch (line[0]) {
      case 'S':
        f >> r.bulk >> r.setup_s >> r.gc_wall_s >> r.client_s >> r.timed_s >> r.client_ops >>
            r.attempted >> r.failed >> r.gc_weight_per_reclaimed >>
            r.floating_garbage >> r.peak_rss_mb;
        break;
      case 'R': {
        f >> r.reclaim_latency_min >> r.reclaim_latency_max;
        for (std::uint64_t b = 0; f >> b;) r.reclaim_latency_buckets.push_back(b);
        break;
      }
      case 'L': {
        std::size_t n = 0;
        f >> n;
        for (std::size_t i = 0; i < n && cls < std::size(kClasses); ++i) {
          double v = 0;
          f >> v;
          r.latency.record(kClasses[cls], v);
        }
        ++cls;
        break;
      }
      case 'F':
        r.failures.push_back(line.substr(2));
        break;
      case 'P': {
        std::string k;
        std::uint64_t v = 0;
        f >> k >> v;
        r.fingerprint[k] = v;
        break;
      }
      case 'Y': {
        std::string k;
        double v = 0;
        f >> k >> v;
        r.layers[k] = v;
        break;
      }
      case 'H': {
        std::string phase;
        std::string k;
        double v = 0;
        f >> phase >> k >> v;
        r.phases[phase][k] = v;
        break;
      }
      default:
        break;
    }
  }
  return r;
}

}  // namespace

RepResult run_isolated(const WorkloadSpec& spec, const Inputs& inputs,
                       bool traced, bool with_bulk, const std::string& trace_out) {
  int fds[2];
  if (::pipe(fds) != 0) return crashed("could not be started (pipe)");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return crashed("could not be started (fork)");
  }
  if (pid == 0) {
    ::close(fds[0]);
    // A runaway repetition fails fast instead of starving the host.
    const rlimit as{kChildAddressSpace, kChildAddressSpace};
    (void)::setrlimit(RLIMIT_AS, &as);
    ::alarm(kChildSeconds);
    int code = 0;
    try {
      Tracer tracer;
      RepResult r = run_rep(spec, inputs, traced ? &tracer : nullptr, with_bulk);
      r.peak_rss_mb =
          static_cast<double>(rgc::util::peak_rss_bytes()) / (1024.0 * 1024.0);
      if (traced && !trace_out.empty()) (void)tracer.write_chrome(trace_out);
      if (!write_all(fds[1], serialize(r))) code = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: repetition threw: %s\n", e.what());
      code = 1;
    }
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  const std::string bytes = read_all(fds[0]);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bytes.empty()) {
    return crashed("died (status " + std::to_string(status) + ")");
  }
  return deserialize(bytes);
}

}  // namespace perfbench
