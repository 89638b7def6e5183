#include "obs/check.h"

#include "gc/cycle/snapshot_io.h"

namespace rgc::obs {
namespace {

std::vector<Finding> image_error(std::string invariant, std::string detail) {
  return {Finding{Severity::kError, std::move(invariant), kNoProcess,
                  std::move(detail)}};
}

}  // namespace

std::vector<Finding> check_image(const std::string& bytes,
                                 std::uint64_t min_mutation_epoch,
                                 rm::ProcessImage* decoded) {
  // decode_image validates first, so a pristine image costs one checksum
  // pass and one decode; only a rejected one is validated again, to name
  // its failure.
  auto image = gc::decode_image(bytes);
  if (!image.has_value()) {
    switch (const gc::ImageStatus status = gc::validate_image(bytes)) {
      case gc::ImageStatus::kOk:
        return image_error(
            "image_structure",
            "checksum valid but the record structure does not decode");
      case gc::ImageStatus::kChecksumMismatch:
        return image_error("image_checksum", gc::to_string(status));
      case gc::ImageStatus::kTruncated:
      case gc::ImageStatus::kBadMagic:
      case gc::ImageStatus::kBadVersion:
        return image_error("image_header", gc::to_string(status));
    }
  }
  if (image->mutation_epoch < min_mutation_epoch) {
    return image_error(
        "image_stale",
        "image mutation epoch " + std::to_string(image->mutation_epoch) +
            " predates the recorded persist epoch " +
            std::to_string(min_mutation_epoch));
  }
  if (decoded != nullptr) *decoded = std::move(*image);
  return {};
}

}  // namespace rgc::obs
