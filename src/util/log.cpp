#include "util/log.h"

#include <cstdio>

#include "util/trace.h"

namespace rgc::util {
namespace {

LogLevel g_level = LogLevel::kOff;

const char* tag(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}

}  // namespace

void set_log_level(LogLevel level) noexcept { g_level = level; }
LogLevel log_level() noexcept { return g_level; }

void log_line(LogLevel level, const std::string& msg) {
  // Attribution context (set by the cluster/network step loop): sim step
  // and the process whose handler is running, so interleaved protocol
  // logs can be told apart.
  const ProcessId pid = current_process();
  if (pid == kNoProcess) {
    std::fprintf(stderr, "[%s][step %llu] %s\n", tag(level),
                 static_cast<unsigned long long>(sim_now()),
                 msg.c_str());
  } else {
    std::fprintf(stderr, "[%s][step %llu][P%u] %s\n", tag(level),
                 static_cast<unsigned long long>(sim_now()), raw(pid),
                 msg.c_str());
  }
}

}  // namespace rgc::util
