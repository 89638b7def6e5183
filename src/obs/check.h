// Offline check of a persisted process image (gc::encode_image bytes).
// Cluster state itself is checked online by obs::HealthAuditor
// (Cluster::audit()); a disk image has no auditor, so Cluster::restart
// validates it here before rehydrating.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/health.h"
#include "rm/image.h"

namespace rgc::obs {

/// Offline verdict on a persisted process image (gc::encode_image bytes):
/// structural validation (magic/version/checksum), decodability, and a
/// stale-snapshot guard — the decoded mutation epoch must be at least
/// `min_mutation_epoch` (pass the epoch recorded when the image was
/// persisted; 0 skips the staleness check).  Empty result = fit to restart
/// from; Cluster::restart refuses anything else.  The image is decoded
/// once: on an empty result it is moved into `*decoded` when non-null.
[[nodiscard]] std::vector<Finding> check_image(
    const std::string& bytes, std::uint64_t min_mutation_epoch = 0,
    rm::ProcessImage* decoded = nullptr);

}  // namespace rgc::obs
