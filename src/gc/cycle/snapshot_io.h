// Process images on disk (§3.5.1, crash/restart persistence, rm/image.h).
//
// "Periodically, each process stores a snapshot of its internal object
// graph on disk. … the cycle detector only uses them in their summarized
// form."  The on-disk snapshot is the process image Cluster::persist
// writes and Cluster::restart rehydrates from; the summarized form is
// computed from the live process (gc::summarize) and installed in its
// detector, never stored.
//
// An image is what a process restarts *from*, so corruption must be
// detected, never silently rehydrated.  The format is little-endian and
// length-prefixed, carries its own magic/version and a trailing FNV-1a
// checksum over the payload, and is bounds-checked on decode (a truncated
// or corrupt buffer yields std::nullopt, never UB); validate_image
// distinguishes the failure modes for obs::check_image.
#pragma once

#include <optional>
#include <string>

#include "rm/image.h"

namespace rgc::gc {

enum class ImageStatus {
  kOk,
  kTruncated,          // shorter than header + checksum
  kBadMagic,           // not an image file
  kBadVersion,         // produced by an incompatible writer
  kChecksumMismatch,   // bit flips or mid-record truncation
};

[[nodiscard]] std::string to_string(ImageStatus status);

/// Serializes a full process image, appending the checksum trailer.
[[nodiscard]] std::string encode_image(const rm::ProcessImage& image);

/// Structural verdict without building the image (cheap; checker-friendly).
[[nodiscard]] ImageStatus validate_image(const std::string& bytes);

/// Decodes a buffer produced by encode_image; std::nullopt unless
/// validate_image(bytes) == kOk and every record decodes cleanly.
[[nodiscard]] std::optional<rm::ProcessImage> decode_image(
    const std::string& bytes);

}  // namespace rgc::gc
