#include "gc/cycle/snapshot_io.h"

#include <string_view>

#include "util/bytes.h"

namespace rgc::gc {
namespace {

constexpr std::uint32_t kImageMagic = 0x52474350;  // "RGCP"
constexpr std::uint32_t kImageVersion = 1;
constexpr std::size_t kImageHeader = 8;   // magic + version
constexpr std::size_t kImageTrailer = 8;  // FNV-1a checksum

using util::put_bool;
using util::put_u32;
using util::put_u64;

void put_object(std::string& out, ObjectId o) { put_u64(out, raw(o)); }
void put_process(std::string& out, ProcessId p) { put_u32(out, raw(p)); }

void put_scion_key(std::string& out, const rm::ScionKey& k) {
  put_process(out, k.src_process);
  put_object(out, k.anchor);
}

void put_stub_key(std::string& out, const rm::StubKey& k) {
  put_object(out, k.target);
  put_process(out, k.target_process);
}

/// util::ByteReader plus the id and key shapes of the image format.
struct Reader : util::ByteReader {
  ObjectId object() { return ObjectId{u64()}; }
  ProcessId process() { return ProcessId{u32()}; }
  rm::ScionKey scion_key() {
    const ProcessId p = process();
    const ObjectId o = object();
    return rm::ScionKey{p, o};
  }
  rm::StubKey stub_key() {
    const ObjectId o = object();
    const ProcessId p = process();
    return rm::StubKey{o, p};
  }
};

}  // namespace

std::string to_string(ImageStatus status) {
  switch (status) {
    case ImageStatus::kOk: return "ok";
    case ImageStatus::kTruncated: return "truncated";
    case ImageStatus::kBadMagic: return "bad magic";
    case ImageStatus::kBadVersion: return "unsupported version";
    case ImageStatus::kChecksumMismatch: return "checksum mismatch";
  }
  return "unknown";
}

std::string encode_image(const rm::ProcessImage& image) {
  std::string out;
  put_u32(out, kImageMagic);
  put_u32(out, kImageVersion);
  put_process(out, image.process);
  put_u64(out, image.taken_at);
  put_u64(out, image.mutation_epoch);
  put_u64(out, image.collection_epoch);

  put_u32(out, static_cast<std::uint32_t>(image.objects.size()));
  for (const rm::ImageObject& o : image.objects) {
    put_object(out, o.id);
    put_u32(out, o.payload_bytes);
    put_bool(out, o.finalizable);
    put_u32(out, static_cast<std::uint32_t>(o.refs.size()));
    for (const rm::Ref& r : o.refs) {
      put_object(out, r.target);
      put_process(out, r.via);
    }
  }

  put_u32(out, static_cast<std::uint32_t>(image.roots.size()));
  for (const ObjectId r : image.roots) put_object(out, r);
  put_u32(out, static_cast<std::uint32_t>(image.transient_roots.size()));
  for (const auto& [id, ttl] : image.transient_roots) {
    put_object(out, id);
    put_u32(out, ttl);
  }

  put_u32(out, static_cast<std::uint32_t>(image.stubs.size()));
  for (const rm::Stub& s : image.stubs) {
    put_stub_key(out, s.key);
    put_u64(out, s.ic);
    put_u64(out, s.created_at);
  }

  put_u32(out, static_cast<std::uint32_t>(image.scions.size()));
  for (const rm::Scion& s : image.scions) {
    put_scion_key(out, s.key);
    put_u64(out, s.ic);
    put_u64(out, s.created_seq);
    put_u32(out, static_cast<std::uint32_t>(s.src_objects.size()));
    for (const ObjectId o : s.src_objects) put_object(out, o);
  }

  put_u32(out, static_cast<std::uint32_t>(image.in_props.size()));
  for (const rm::InProp& e : image.in_props) {
    put_object(out, e.object);
    put_process(out, e.process);
    put_u64(out, e.uc);
    put_bool(out, e.sent_umess);
  }
  put_u32(out, static_cast<std::uint32_t>(image.out_props.size()));
  for (const rm::OutProp& e : image.out_props) {
    put_object(out, e.object);
    put_process(out, e.process);
    put_u64(out, e.uc);
    put_bool(out, e.rec_umess);
  }

  put_u32(out, static_cast<std::uint32_t>(image.delivered_prop_seq.size()));
  for (const auto& [p, seq] : image.delivered_prop_seq) {
    put_process(out, p);
    put_u64(out, seq);
  }
  put_u32(out, static_cast<std::uint32_t>(image.stub_peers.size()));
  for (const ProcessId p : image.stub_peers) put_process(out, p);
  put_u32(out, static_cast<std::uint32_t>(image.newsetstubs_epochs.size()));
  for (const auto& [p, e] : image.newsetstubs_epochs) {
    put_process(out, p);
    put_u64(out, e);
  }

  put_u64(out, util::fnv1a(out));
  return out;
}

ImageStatus validate_image(const std::string& bytes) {
  if (bytes.size() < kImageHeader + kImageTrailer) {
    return ImageStatus::kTruncated;
  }
  Reader r{{bytes}};
  if (r.u32() != kImageMagic) return ImageStatus::kBadMagic;
  if (r.u32() != kImageVersion) return ImageStatus::kBadVersion;
  const std::string_view body{bytes.data(), bytes.size() - kImageTrailer};
  util::ByteReader trailer{std::string_view{bytes}.substr(body.size())};
  if (trailer.u64() != util::fnv1a(body)) {
    return ImageStatus::kChecksumMismatch;
  }
  return ImageStatus::kOk;
}

std::optional<rm::ProcessImage> decode_image(const std::string& bytes) {
  if (validate_image(bytes) != ImageStatus::kOk) return std::nullopt;
  Reader r{{bytes}};
  r.u32();  // magic, validated above
  r.u32();  // version

  rm::ProcessImage image;
  image.process = r.process();
  image.taken_at = r.u64();
  image.mutation_epoch = r.u64();
  image.collection_epoch = r.u64();

  const std::uint32_t objects = r.count(13);
  for (std::uint32_t i = 0; i < objects && r.ok; ++i) {
    rm::ImageObject o;
    o.id = r.object();
    o.payload_bytes = r.u32();
    o.finalizable = r.boolean();
    const std::uint32_t refs = r.count(12);
    for (std::uint32_t k = 0; k < refs && r.ok; ++k) {
      rm::Ref ref;
      ref.target = r.object();
      ref.via = r.process();
      o.refs.push_back(ref);
    }
    if (r.ok) image.objects.push_back(std::move(o));
  }

  const std::uint32_t roots = r.count(8);
  for (std::uint32_t i = 0; i < roots && r.ok; ++i) {
    image.roots.push_back(r.object());
  }
  const std::uint32_t transients = r.count(12);
  for (std::uint32_t i = 0; i < transients && r.ok; ++i) {
    const ObjectId id = r.object();
    const std::uint32_t ttl = r.u32();
    if (r.ok) image.transient_roots.emplace_back(id, ttl);
  }

  const std::uint32_t stubs = r.count(28);
  for (std::uint32_t i = 0; i < stubs && r.ok; ++i) {
    rm::Stub s;
    s.key = r.stub_key();
    s.ic = r.u64();
    s.created_at = r.u64();
    if (r.ok) image.stubs.push_back(std::move(s));
  }

  const std::uint32_t scions = r.count(32);
  for (std::uint32_t i = 0; i < scions && r.ok; ++i) {
    rm::Scion s;
    s.key = r.scion_key();
    s.ic = r.u64();
    s.created_seq = r.u64();
    const std::uint32_t srcs = r.count(8);
    for (std::uint32_t k = 0; k < srcs && r.ok; ++k) {
      s.src_objects.push_back(r.object());
    }
    if (r.ok) image.scions.push_back(std::move(s));
  }

  const std::uint32_t ins = r.count(21);
  for (std::uint32_t i = 0; i < ins && r.ok; ++i) {
    rm::InProp e;
    e.object = r.object();
    e.process = r.process();
    e.uc = r.u64();
    e.sent_umess = r.boolean();
    if (r.ok) image.in_props.push_back(e);
  }
  const std::uint32_t outs = r.count(21);
  for (std::uint32_t i = 0; i < outs && r.ok; ++i) {
    rm::OutProp e;
    e.object = r.object();
    e.process = r.process();
    e.uc = r.u64();
    e.rec_umess = r.boolean();
    if (r.ok) image.out_props.push_back(e);
  }

  const std::uint32_t seqs = r.count(12);
  for (std::uint32_t i = 0; i < seqs && r.ok; ++i) {
    const ProcessId p = r.process();
    const std::uint64_t seq = r.u64();
    if (r.ok) image.delivered_prop_seq.emplace_back(p, seq);
  }
  const std::uint32_t peers = r.count(4);
  for (std::uint32_t i = 0; i < peers && r.ok; ++i) {
    image.stub_peers.push_back(r.process());
  }
  const std::uint32_t epochs = r.count(12);
  for (std::uint32_t i = 0; i < epochs && r.ok; ++i) {
    const ProcessId p = r.process();
    const std::uint64_t e = r.u64();
    if (r.ok) image.newsetstubs_epochs.emplace_back(p, e);
  }

  if (!r.ok || r.at != bytes.size() - kImageTrailer) return std::nullopt;
  return image;
}

}  // namespace rgc::gc
