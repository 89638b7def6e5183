// Crash/restart persistence: capturing a Process into a ProcessImage and
// rehydrating one from it.  Lives next to process.cpp (full member access);
// the byte-level serialization with checksumming is in
// gc/cycle/snapshot_io.cpp, keeping all persistence formats in one place.
#include <algorithm>

#include "rm/image.h"
#include "rm/process.h"
#include "util/log.h"

namespace rgc::rm {

ProcessImage Process::capture_image(std::uint64_t now) const {
  ProcessImage image;
  image.process = id_;
  image.taken_at = now;
  image.mutation_epoch = mutation_epoch_;
  image.collection_epoch = collection_epoch_;

  image.objects.reserve(heap_.size());
  heap_.for_each([&](ObjectId id, std::uint32_t, const Object& obj) {
    image.objects.push_back(
        ImageObject{id, obj.refs, obj.payload_bytes, obj.finalizable});
  });
  image.roots.assign(heap_.roots().begin(), heap_.roots().end());
  image.transient_roots.assign(transient_roots_.begin(),
                               transient_roots_.end());

  image.stubs.reserve(stubs_.size());
  for (const auto& [key, stub] : stubs_) image.stubs.push_back(stub);
  image.scions.reserve(scions_.size());
  for (const auto& [key, scion] : scions_) image.scions.push_back(scion);
  image.in_props = in_props_;
  image.out_props = out_props_;

  image.delivered_prop_seq.assign(delivered_prop_seq_.begin(),
                                  delivered_prop_seq_.end());
  image.stub_peers.assign(stub_peers_.begin(), stub_peers_.end());
  image.newsetstubs_epochs.assign(newsetstubs_epochs_.begin(),
                                  newsetstubs_epochs_.end());
  return image;
}

void Process::restore_image(const ProcessImage& image, std::uint64_t now) {
  heap_ = Heap{};
  stubs_.clear();
  stub_index_.clear();
  scions_.clear();
  in_props_.clear();
  out_props_.clear();
  transient_roots_.clear();
  delivered_prop_seq_.clear();
  stub_peers_.clear();
  newsetstubs_epochs_.clear();
  last_heard_.clear();

  for (const ImageObject& o : image.objects) {
    Object& obj = heap_.put(o.id, o.refs, o.payload_bytes);
    obj.finalizable = o.finalizable;
  }
  for (const ObjectId r : image.roots) heap_.add_root(r);
  for (const auto& [id, ttl] : image.transient_roots) {
    transient_roots_[id] = ttl;
  }
  for (const Stub& s : image.stubs) {
    Stub& stub = ensure_stub(s.key, s.created_at);
    stub.ic = s.ic;
  }
  for (const Scion& s : image.scions) scions_[s.key] = s;
  in_props_ = image.in_props;
  out_props_ = image.out_props;
  for (const auto& [p, seq] : image.delivered_prop_seq) {
    delivered_prop_seq_[p] = seq;
  }
  stub_peers_.insert(image.stub_peers.begin(), image.stub_peers.end());
  for (const auto& [p, e] : image.newsetstubs_epochs) {
    newsetstubs_epochs_[p] = e;
  }
  collection_epoch_ = image.collection_epoch;

  // Re-registration: every peer the image names gets a fresh lease as of
  // the restart step, in both roles — this process must not reclaim their
  // state before hearing from them again, and docs/FAULTS.md's safety rule
  // ("re-register and re-bind before reclaiming anything") starts here.
  const auto renew = [&](ProcessId peer) {
    if (peer != id_ && peer != kNoProcess) note_heard(peer, now);
  };
  for (const Stub& s : image.stubs) renew(s.key.target_process);
  for (const Scion& s : image.scions) renew(s.key.src_process);
  for (const InProp& e : in_props_) renew(e.process);
  for (const OutProp& e : out_props_) renew(e.process);
  for (const auto& [p, seq] : image.delivered_prop_seq) renew(p);
  for (const ProcessId p : image.stub_peers) renew(p);
  for (const auto& [p, e] : image.newsetstubs_epochs) renew(p);

  // Resume strictly after the image's epoch so a follow-up persist of the
  // restored state is never mistaken for a stale snapshot.  Everything the
  // roots reach is new as well; the root epoch never runs ahead of the
  // mutation epoch, so it resumes there.
  mutation_epoch_ = std::max(mutation_epoch_, image.mutation_epoch) + 1;
  root_epoch_ = mutation_epoch_;
  RGC_DEBUG("rm: ", to_string(id_), " restored image taken at step ",
            image.taken_at, " (", image.objects.size(), " objects)");
}

}  // namespace rgc::rm
