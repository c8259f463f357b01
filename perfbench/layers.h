// Per-layer probes of the traced run: each layer of the program is timed
// from outside, by calling its public functions at the object and shard
// sizes a workload produces.
#pragma once

#include <cstdint>
#include <vector>

#include "archive/policy.h"
#include "common.h"

namespace pb {

/// Seconds per call of the layer functions one put is made of, at the
/// workload's median object size. The traced run subtracts these (times
/// the calls per put) from the measured put median to find the part of
/// a put no probed layer accounts for.
struct LayerCosts {
  double handshake = 0;      // TLS handshake or QKD establish, per shard
  double channel_shard = 0;  // seal + open of one shard's wire frame
  double cipher_object = 0;  // AES-256-CTR over the object (cloud)
  double encode_object = 0;  // RS encode or Shamir split of the object
  double sha_shard = 0;      // SHA-256 over one shard
  double merkle = 0;         // Merkle tree over the n shards
  double serde_shard = 0;    // StoredBlob serialize + deserialize
  double entropy_object = 0; // entropy estimate over the object
  double stamp = 0;          // SHA-256 + timestamp begin, or commit+stamp
  double ledger_append = 0;  // one audit-ledger append
  double counter_lookup = 0; // one named registry lookup
};

/// Runs every probe for `policy` at `object_bytes`, records a span per
/// timed batch, and returns the per-layer metrics plus the costs above.
std::vector<Metric> probe_layers(const aegis::ArchivalPolicy& policy,
                                 std::size_t object_bytes, std::uint64_t seed,
                                 Spans& spans, LayerCosts& costs);

}  // namespace pb
