// Strong identifier types shared by every subsystem.
//
// A logical object in the Replicated Memory (RM) model has one global
// ObjectId; each copy of it living on a particular process is a Replica
// (ObjectId + ProcessId).  The cycle-detection algebra of the paper
// manipulates replicas, so Replica is ordered and hashable.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace rgc {

/// Identifies one participating process (a physical node of the store).
enum class ProcessId : std::uint32_t {};

/// Identifies one logical object (a vertex of the distributed graph).
/// Replicas of the same object on different processes share the ObjectId.
enum class ObjectId : std::uint64_t {};

inline constexpr ProcessId kNoProcess{std::numeric_limits<std::uint32_t>::max()};
inline constexpr ObjectId kNoObject{std::numeric_limits<std::uint64_t>::max()};

constexpr std::uint32_t raw(ProcessId p) noexcept { return static_cast<std::uint32_t>(p); }
constexpr std::uint64_t raw(ObjectId o) noexcept { return static_cast<std::uint64_t>(o); }

/// A specific copy of a logical object on a specific process.  This is the
/// element type of the CDM algebra's dependency and target sets (the paper
/// writes them as X_P1, X'_P2, ...).
struct Replica {
  ObjectId object{kNoObject};
  ProcessId process{kNoProcess};

  friend constexpr auto operator<=>(const Replica&, const Replica&) = default;
};

/// Human-readable forms used by logs, reports and test diagnostics.  Built
/// by appending: `"P" + std::to_string(...)` trips GCC 12's -Wrestrict false
/// positive in optimized builds.
inline std::string to_string(ProcessId p) {
  std::string s(1, 'P');
  s += std::to_string(raw(p));
  return s;
}
inline std::string to_string(ObjectId o) {
  std::string s(1, 'o');
  s += std::to_string(raw(o));
  return s;
}
inline std::string to_string(const Replica& r) {
  return to_string(r.object) + "@" + to_string(r.process);
}

}  // namespace rgc

template <>
struct std::hash<rgc::Replica> {
  std::size_t operator()(const rgc::Replica& r) const noexcept {
    const std::uint64_t a = rgc::raw(r.object);
    const std::uint64_t b = rgc::raw(r.process);
    std::uint64_t x = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x517cc1b727220a95ULL);
    x ^= x >> 32;
    return static_cast<std::size_t>(x);
  }
};

template <>
struct std::hash<rgc::ObjectId> {
  std::size_t operator()(rgc::ObjectId o) const noexcept {
    return std::hash<std::uint64_t>{}(rgc::raw(o));
  }
};

template <>
struct std::hash<rgc::ProcessId> {
  std::size_t operator()(rgc::ProcessId p) const noexcept {
    return std::hash<std::uint32_t>{}(rgc::raw(p));
  }
};
