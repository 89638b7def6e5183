// The original ADGC digest, kept as the executable specification of
// gc::Adgc::after_collection (§2.2.3): NewSetStubs grouped through a
// per-peer map, then the Union-Rule reporting that collects every
// prop-list object into a set and rescans both lists for each one that is
// not locally anchored.  It costs O(unanchored × props) in the serial phase
// of every collection, so it lives in the test tree only;
// adgc_digest_diff_test checks the merge-walk digest against it.
#pragma once

#include "gc/lgc/lgc.h"
#include "rm/process.h"

namespace rgc::gc {

/// Sends what Adgc::after_collection sends, in the same order, and leaves
/// the same flags, prop lists, stub peers and epochs behind.
void after_collection_reference(rm::Process& process, const LgcResult& result);

}  // namespace rgc::gc
