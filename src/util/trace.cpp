#include "util/trace.h"

#include <cstdio>

namespace rgc::util {
namespace {

thread_local std::uint64_t t_sim_now = 0;
thread_local ProcessId t_current_process = kNoProcess;

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void set_sim_now(std::uint64_t step) noexcept { t_sim_now = step; }
std::uint64_t sim_now() noexcept { return t_sim_now; }
void set_current_process(ProcessId pid) noexcept { t_current_process = pid; }
ProcessId current_process() noexcept { return t_current_process; }

}  // namespace rgc::util
