#include "layers.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>

#include "archive/archive.h"
#include "channel/qkd_channel.h"
#include "channel/tls_channel.h"
#include "crypto/aes.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "erasure/codec_cache.h"
#include "gf/gf256.h"
#include "integrity/merkle.h"
#include "integrity/timestamp.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "sharing/proactive.h"
#include "sharing/shamir.h"
#include "util/entropy.h"

namespace pb {
namespace {

using namespace aegis;

constexpr double kBatchSeconds = 0.01;
constexpr unsigned kPasses = 9;

// Keeps results observable so no call can be dropped as dead code.
volatile std::uint8_t g_sink = 0;
void sink(const Bytes& b) {
  if (!b.empty()) g_sink = g_sink ^ b[b.size() / 2];
}

/// Times every registered call in kPasses round-robin passes of one batch
/// each, and keeps each call's fastest batch. Other tenants' work on the
/// same core comes and goes in spells of up to seconds and only ever
/// slows a batch down; spreading a probe's batches over the whole probing
/// period and keeping the fastest estimates the call's own cost.
class Prober {
 public:
  explicit Prober(Spans& spans) : spans_(spans) {}

  /// Registers `f` (one call of the layer function); `prepare(reps)`, if
  /// given, runs untimed before each batch of `reps` calls. Returns the
  /// probe's index for seconds().
  std::size_t add(const char* name, const char* layer,
                  std::function<void()> f,
                  std::function<void(unsigned)> prepare = nullptr) {
    if (prepare) prepare(1);
    const double t = now_s();
    f();
    const double one = std::max(now_s() - t, 1e-7);
    const auto reps = static_cast<unsigned>(
        std::clamp(kBatchSeconds / one, 1.0, 1e6));
    probes_.push_back({name, layer, std::move(f), std::move(prepare), reps,
                       spans_.new_op(), 1e300});
    return probes_.size() - 1;
  }

  /// Runs the passes; each batch is a span of its probe's operation.
  void run() {
    for (unsigned pass = 0; pass < kPasses; ++pass)
      for (Probe& p : probes_) {
        if (p.prepare) p.prepare(p.reps);
        auto s = spans_.span(p.name, p.layer, p.op);
        const double t = now_s();
        for (unsigned r = 0; r < p.reps; ++r) p.f();
        p.best = std::min(p.best, (now_s() - t) / p.reps);
      }
  }

  /// Fastest seconds per call of probe `i`.
  double seconds(std::size_t i) const { return probes_[i].best; }

 private:
  struct Probe {
    const char* name;
    const char* layer;
    std::function<void()> f;
    std::function<void(unsigned)> prepare;
    unsigned reps;
    std::uint64_t op;
    double best;
  };
  Spans& spans_;
  std::vector<Probe> probes_;
};

}  // namespace

std::vector<Metric> probe_layers(const ArchivalPolicy& policy,
                                 std::size_t object_bytes, std::uint64_t seed,
                                 Spans& spans, LayerCosts& costs) {
  ChaChaRng rng(seed ^ 0x6c61796572ULL);
  const bool rs = policy.encoding != EncodingKind::kShamir;
  // Layers the policy does not use are probed at the geometry of the
  // other policy family, so every workload reports every layer.
  const unsigned rs_k = rs ? policy.k : 6, rs_n = rs ? policy.n : 9;
  const unsigned sh_t = rs ? 3 : policy.t, sh_n = rs ? 5 : policy.n;
  const unsigned n = policy.n;
  const std::size_t S = object_bytes;
  const std::size_t shard = rs ? (S + rs_k - 1) / rs_k : S;

  // Inputs and state every probe works on; all outlive prober.run().
  const Bytes object = rng.bytes(S);
  const Bytes shard_data = rng.bytes(shard);
  StoredBlob blob;
  blob.object = "o00000-000";
  blob.data = shard_data;
  const Bytes wire = blob.serialize();
  auto [tls_l, tls_r] = TlsChannel::handshake(rng);
  // One QKD pad per call, as each cluster conversation establishes its
  // own; establishing them is untimed preparation of the batch.
  std::vector<QkdChannel::Result> pads;
  auto make_pads = [&](unsigned count) {
    pads.clear();
    for (unsigned i = 0; i < count; ++i)
      pads.push_back(QkdChannel::establish(wire.size() + 64, rng));
  };
  std::size_t next_pad = 0;
  Bytes buf = object;
  const Bytes key = rng.bytes(32), iv = rng.bytes(16), nonce = rng.bytes(12);
  const ReedSolomon& codec = rs_codec(rs_k, rs_n);
  std::vector<std::optional<Bytes>> degraded;
  {
    // Degraded read: the first n - k data shards are lost, so every one
    // of them is rebuilt from parity.
    const std::vector<Bytes> coded = codec.encode(object);
    degraded.assign(coded.begin(), coded.end());
    for (unsigned i = 0; i < rs_n - rs_k; ++i) degraded[i].reset();
  }
  Bytes row = rng.bytes(shard);
  std::vector<Share> shares = shamir_split(object, sh_t, sh_n, rng);
  const std::vector<Share> quorum(shares.begin(), shares.begin() + sh_t);
  TimestampAuthority tsa(rng);
  const Bytes digest = Sha256::hash(object);
  const std::vector<Bytes> leaves(n, shard_data);
  AuditLedger ledger;
  // A registry holding what an archive registers, looked up by a name
  // built per call, as op_begin/op_end do.
  MetricsRegistry reg;
  for (const char* op : {"put", "get", "scrub", "audit", "repair", "refresh",
                         "migrate", "doctor", "verify"})
    for (const char* m : {".count", ".retries", ".failures"})
      reg.counter(std::string("archive.") + op + m);
  const char* volatile lookup_op = "put";

  Prober p(spans);
  const std::size_t tls_hs = p.add("channel.tls_handshake", "channel",
                                   [&] { (void)TlsChannel::handshake(rng); });
  const std::size_t tls_so =
      p.add("channel.tls_seal_open", "channel",
            [&] { sink(tls_r->open(tls_l->seal(wire))); });
  const std::size_t qkd_est = p.add("channel.qkd_establish", "channel", [&] {
    (void)QkdChannel::establish(wire.size() + 64, rng);
  });
  const std::size_t qkd_so = p.add(
      "channel.qkd_seal_open", "channel",
      [&] {
        QkdChannel::Result& pad = pads[next_pad++];
        sink(pad.right->open(pad.left->seal(wire)));
      },
      [&](unsigned reps) {
        make_pads(reps);
        next_pad = 0;
      });
  const std::size_t aes = p.add("crypto.aes256_ctr", "crypto",
                                [&] { aes_ctr_inplace(key, iv, buf); });
  const std::size_t chacha = p.add("crypto.chacha20", "crypto",
                                   [&] { chacha20_inplace(key, nonce, buf); });
  const std::size_t sha = p.add("crypto.sha256", "crypto",
                                [&] { sink(Sha256::hash(shard_data)); });
  const std::size_t hmac = p.add("crypto.hmac_sha256", "crypto",
                                 [&] { sink(hmac_sha256(key, wire)); });
  const std::size_t enc = p.add("erasure.rs_encode", "erasure",
                                [&] { sink(codec.encode(object)[0]); });
  const std::size_t dec = p.add("erasure.rs_decode_degraded", "erasure",
                                [&] { sink(codec.decode(degraded, S)); });
  const std::size_t gf = p.add("gf.mul_add_row", "gf", [&] {
    gf256::mul_add_row(row, shard_data, 0x8e);
  });
  const std::size_t split = p.add("sharing.shamir_split", "sharing", [&] {
    sink(shamir_split(object, sh_t, sh_n, rng)[0].data);
  });
  const std::size_t recover =
      p.add("sharing.shamir_recover", "sharing",
            [&] { sink(shamir_recover(quorum, sh_t)); });
  const std::size_t refresh =
      p.add("sharing.proactive_refresh", "sharing",
            [&] { shares = proactive_refresh(shares, sh_t, rng); });
  const std::size_t begin =
      p.add("integrity.timestamp_begin", "integrity", [&] {
        (void)TimestampChain::begin(tsa, digest, SchemeId::kSha256, 0);
      });
  const std::size_t stamp =
      p.add("integrity.commit_and_stamp", "integrity",
            [&] { (void)commit_and_stamp(tsa, object, 0, rng); });
  const std::size_t merkle = p.add("integrity.merkle_build", "integrity",
                                   [&] { sink(MerkleTree(leaves).root()); });
  const std::size_t serde = p.add("node.blob_serde", "node", [&] {
    sink(StoredBlob::deserialize(blob.serialize()).data);
  });
  const std::size_t append = p.add("obs.ledger_append", "obs", [&] {
    ledger.append(0, "archive.put", blob.object, "ok");
  });
  const std::size_t lookup = p.add("obs.counter_lookup", "obs", [&] {
    reg.counter(std::string("archive.") + lookup_op + ".count").inc();
  });
  const std::size_t entropy = p.add("util.entropy_estimate", "util", [&] {
    const double bits = estimate_entropy_per_byte(object);
    g_sink = g_sink ^ static_cast<std::uint8_t>(bits);
  });
  p.run();

  auto mb_s = [&](std::size_t bytes, std::size_t i) {
    return bytes / 1e6 / p.seconds(i);
  };
  auto us = [&](std::size_t i) { return p.seconds(i) * 1e6; };
  const bool qkd = policy.channel == ChannelKind::kQkd;
  costs.handshake = p.seconds(qkd ? qkd_est : tls_hs);
  costs.channel_shard = p.seconds(qkd ? qkd_so : tls_so);
  costs.cipher_object = rs ? p.seconds(aes) : 0;
  costs.encode_object = p.seconds(rs ? enc : split);
  costs.sha_shard = p.seconds(sha);
  costs.merkle = p.seconds(merkle);
  costs.serde_shard = p.seconds(serde);
  costs.entropy_object = p.seconds(entropy);
  costs.stamp = policy.pedersen_timestamps
                    ? p.seconds(stamp)
                    : p.seconds(begin) + costs.sha_shard * S / shard;
  costs.ledger_append = p.seconds(append);
  costs.counter_lookup = p.seconds(lookup);
  return {
      {"channel.tls_handshake_us", us(tls_hs), "us"},
      {"channel.tls_seal_open_mb_s", mb_s(wire.size(), tls_so), "MB/s"},
      {"channel.qkd_establish_us", us(qkd_est), "us"},
      {"channel.qkd_seal_open_mb_s", mb_s(wire.size(), qkd_so), "MB/s"},
      {"crypto.aes256_ctr_mb_s", mb_s(S, aes), "MB/s"},
      {"crypto.chacha20_mb_s", mb_s(S, chacha), "MB/s"},
      {"crypto.sha256_mb_s", mb_s(shard, sha), "MB/s"},
      {"crypto.hmac_sha256_mb_s", mb_s(wire.size(), hmac), "MB/s"},
      {"erasure.rs_encode_mb_s", mb_s(S, enc), "MB/s"},
      {"erasure.rs_decode_degraded_mb_s", mb_s(S, dec), "MB/s"},
      {"gf.mul_add_row_mb_s", mb_s(shard, gf), "MB/s"},
      {"sharing.shamir_split_mb_s", mb_s(S, split), "MB/s"},
      {"sharing.shamir_recover_mb_s", mb_s(S, recover), "MB/s"},
      {"sharing.proactive_refresh_mb_s", mb_s(S, refresh), "MB/s"},
      {"integrity.timestamp_begin_us", us(begin), "us"},
      {"integrity.commit_and_stamp_us", us(stamp), "us"},
      {"integrity.merkle_build_us", us(merkle), "us"},
      {"node.blob_serde_mb_s", mb_s(shard, serde), "MB/s"},
      {"obs.ledger_append_us", us(append), "us"},
      {"obs.counter_lookup_us", us(lookup), "us"},
      {"util.entropy_estimate_mb_s", mb_s(S, entropy), "MB/s"},
  };
}

}  // namespace pb
