// Unit tests: process image serialization (§3.5.1 "stores a snapshot …
// on disk") — round trips and corruption rejection.
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "gc/cycle/snapshot_io.h"
#include "obs/check.h"
#include "rm/image.h"
#include "workload/figures.h"

namespace rgc::gc {
namespace {

using core::Cluster;

// ---- Process images (crash/restart persistence, docs/FAULTS.md) -----------

/// A process with heap, roots, stubs/scions and props worth persisting.
std::string rich_image_bytes(Cluster& cluster) {
  const auto f = workload::build_figure2(cluster);
  const ObjectId r = cluster.new_object(f.p1);
  cluster.add_root(f.p1, r);
  cluster.run_until_quiescent();
  return encode_image(cluster.process(f.p1).capture_image(cluster.now()));
}

TEST(ImageIo, RichImageRoundTrips) {
  Cluster cluster;
  const std::string bytes = rich_image_bytes(cluster);
  EXPECT_EQ(validate_image(bytes), ImageStatus::kOk);
  const auto decoded = decode_image(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(encode_image(*decoded), bytes);  // canonical re-encoding
  EXPECT_TRUE(obs::check_image(bytes).empty());
}

TEST(ImageIo, TruncationIsReportedNotMisdecoded) {
  Cluster cluster;
  const std::string bytes = rich_image_bytes(cluster);
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    const std::string cut_bytes = bytes.substr(0, cut);
    const ImageStatus status = validate_image(cut_bytes);
    EXPECT_NE(status, ImageStatus::kOk) << "cut at " << cut;
    EXPECT_FALSE(decode_image(cut_bytes).has_value()) << "cut at " << cut;
    EXPECT_FALSE(obs::check_image(cut_bytes).empty()) << "cut at " << cut;
  }
}

TEST(ImageIo, EveryBitFlipIsCaughtByTheChecksum) {
  Cluster cluster;
  const std::string bytes = rich_image_bytes(cluster);
  for (std::size_t i = 0; i < bytes.size(); i += 5) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    EXPECT_NE(validate_image(flipped), ImageStatus::kOk) << "flip at " << i;
    EXPECT_FALSE(decode_image(flipped).has_value()) << "flip at " << i;
    EXPECT_FALSE(obs::check_image(flipped).empty()) << "flip at " << i;
  }
}

TEST(ImageIo, BadMagicAndVersionAreDistinguished) {
  Cluster cluster;
  const std::string bytes = rich_image_bytes(cluster);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_EQ(validate_image(bad_magic), ImageStatus::kBadMagic);
  EXPECT_EQ(validate_image(std::string{}), ImageStatus::kTruncated);
}

TEST(ImageIo, StaleEpochIsFlaggedByTheChecker) {
  // A stale-but-intact image passes byte validation; only the checker's
  // epoch guard (restart's min_mutation_epoch) catches the swap.
  Cluster cluster;
  const ProcessId p = cluster.add_process();
  const ObjectId a = cluster.new_object(p);
  cluster.add_root(p, a);
  const std::string old_bytes =
      encode_image(cluster.process(p).capture_image(cluster.now()));
  const std::uint64_t old_epoch = cluster.process(p).mutation_epoch();

  const ObjectId b = cluster.new_object(p);
  cluster.add_ref(p, a, b);
  const std::uint64_t new_epoch = cluster.process(p).mutation_epoch();
  ASSERT_GT(new_epoch, old_epoch);

  EXPECT_EQ(validate_image(old_bytes), ImageStatus::kOk);
  EXPECT_TRUE(obs::check_image(old_bytes, old_epoch).empty());
  const auto findings = obs::check_image(old_bytes, new_epoch);
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings.front().invariant, "image_stale");
}

}  // namespace
}  // namespace rgc::gc
