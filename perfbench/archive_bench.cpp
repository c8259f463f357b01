// End-to-end archive benchmark.
//
//   archive_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-file <path>] [--inject <check>]
//
// One workload runs in this single process, on one thread, against a
// healthy 12-node in-process Cluster. A run is whole rounds; each round
// builds a fresh cluster and archive (set-up), then runs the phases
//
//   put -> get -> scrub passes -> renew -> node-loss repair -> checks
//
// where "renew" is the policy's whole-archive protection renewal: a
// MigrationEngine re-encryption (AES-256-CTR -> ChaCha20) for the cloud
// policy, proactive share-refresh passes for LINCOS. Rounds repeat until
// the next one would end past --seconds, and at least min_rounds run.
// Every output is checked against values the benchmark computes itself;
// a failed check or a failed operation makes the run exit 1.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones, every timing at reference speed (see Gauge in common.h); the
// wall-clock figures precede it on a "raw-end-to-end" line. With
// --trace 1 the run also records spans (written as Chrome-
// trace JSON to --trace-file), probes every layer at the workload's
// sizes, prints its own end-to-end figures on a "traced-end-to-end" line
// and reports the per-layer metrics instead.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "archive/archive.h"
#include "archive/migration.h"
#include "common.h"
#include "crypto/chacha20.h"
#include "layers.h"

namespace pb {
namespace {

using namespace aegis;

constexpr unsigned kNodes = 12;
constexpr double kHardStopSeconds = 140;  // keeps every run under 180 s

struct WorkloadSpec {
  const char* name;
  ArchivalPolicy policy;
  unsigned objects;      // per round
  double median_bytes;   // log-normal object sizes ...
  double sigma;          // ... with this shape,
  double min_bytes;      // clipped to [min_bytes, max_bytes]
  double max_bytes;
  unsigned scrub_passes;
  unsigned refresh_passes;  // 0: renew by re-encryption instead
  unsigned min_rounds;
  // Tail percentile: at least ten samples lie beyond it already at
  // min_rounds * objects samples.
  double tail_pct;
};

std::vector<WorkloadSpec> workloads() {
  // Rounds are short (about 1-3 s) so every phase is sampled at many
  // moments of a run: on a shared machine the speed of the core comes and
  // goes within seconds, and a long phase could fall wholly into a slow
  // or a fast spell.
  return {
      {"small_cloud", ArchivalPolicy::CloudBaseline(), 25, 4096, 0.5, 512,
       32768, 40, 0, 8, 95},
      {"bulk_cloud", ArchivalPolicy::CloudBaseline(), 8, 320 * 1024, 0.5,
       64 * 1024, 1024 * 1024, 8, 0, 7, 80},
      {"lincos_refresh", ArchivalPolicy::Lincos(), 25, 32768, 0.5, 4096,
       262144, 8, 2, 8, 95},
  };
}

bool is_sharing(const ArchivalPolicy& p) {
  return p.encoding == EncodingKind::kShamir;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// ----------------------------------------------------------------- inputs

struct Inputs {
  std::vector<ObjectId> ids;
  std::vector<Bytes> data;
  Bytes warmup;  // set-up object, removed again before the phases
  std::uint64_t logical = 0;
};

/// Standard normal quantile by bisection on the CDF (N is small).
double normal_quantile(double u) {
  double lo = -9, hi = 9;
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < u ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

Bytes make_content(std::size_t size, std::mt19937_64& gen) {
  Bytes out(size);
  if (gen() & 1) {
    // Incompressible: archived media, already-compressed files.
    for (std::size_t i = 0; i < size; i += 8) {
      const std::uint64_t w = gen();
      std::memcpy(out.data() + i, &w, std::min<std::size_t>(8, size - i));
    }
  } else {
    // Structured: records over a small alphabet, as text and tables are.
    static const char kAlphabet[] = "0123456789,;abcdef\n";
    for (std::size_t i = 0; i < size; ++i)
      out[i] = static_cast<std::uint8_t>(kAlphabet[gen() % 19]);
  }
  return out;
}

/// The round's objects, from (seed, round) alone. Sizes are a Latin-
/// hypercube sample of the workload's log-normal: object i draws its
/// quantile from the middle half of the i-th of `objects` equal strata,
/// and the order is shuffled. Every round thus covers the size
/// distribution the same way, and the logical bytes of a round (and with
/// them the peak memory) vary little from seed to seed.
Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed, unsigned round) {
  std::mt19937_64 gen(splitmix(seed * 1000003ULL + round));
  std::vector<std::size_t> sizes;
  for (unsigned i = 0; i < w.objects; ++i) {
    const double u =
        (i + std::uniform_real_distribution<double>(0.25, 0.75)(gen)) /
        w.objects;
    const double s = w.median_bytes * std::exp(w.sigma * normal_quantile(u));
    sizes.push_back(static_cast<std::size_t>(
        std::clamp(std::round(s), w.min_bytes, w.max_bytes)));
  }
  for (std::size_t i = sizes.size(); i > 1; --i)
    std::swap(sizes[i - 1], sizes[gen() % i]);

  Inputs in;
  char id[32];
  for (unsigned i = 0; i < w.objects; ++i) {
    std::snprintf(id, sizeof id, "o%05u-%03u", round % 100000, i);
    in.ids.push_back(id);
    in.data.push_back(make_content(sizes[i], gen));
    in.logical += sizes[i];
  }
  in.warmup = make_content(static_cast<std::size_t>(w.median_bytes), gen);
  return in;
}

// ------------------------------------------------------------- accounting

struct Phase {
  std::uint64_t attempted = 0, failed = 0;
  double wall_s = 0;        // the phase's archive calls, wall clock
  double ref_s = 0;         // the same at reference speed (see Gauge)
  std::uint64_t bytes = 0;  // logical bytes processed (x passes)
};

/// Everything a run accumulates over its rounds. Timings are kept at
/// reference speed and, as *_raw, on the wall clock.
struct Tally {
  std::map<std::string, Phase> phases;
  std::vector<double> setup_s, put_ms, get_ms;
  std::vector<double> setup_s_raw, put_ms_raw, get_ms_raw;
  double sim_ms = 0;
  std::uint64_t logical = 0, stored = 0;
  // Per-layer counts read from the program's public state (traced run).
  std::uint64_t puts = 0, gets = 0, uploads_put = 0, downloads_get = 0;
  std::uint64_t bytes_up = 0, bytes_down = 0, wiretap_bytes = 0,
                refresh_bytes = 0, renew_bytes = 0, io_retries = 0;
  std::uint64_t challenges = 0, scrubbed = 0, repaired = 0,
                repair_objects = 0, ledger_entries = 0, ledger_ops = 0;
  std::uint64_t renew_passes_logical = 0;
};

struct Checks {
  std::uint64_t failures = 0;
  void fail(const char* check, const std::string& what) {
    if (++failures <= 20)
      std::fprintf(stderr, "CHECK FAILED: %s: %s\n", check, what.c_str());
  }
  bool ok() const { return failures == 0; }
};

/// The archive under test, rebuilt every round. The cluster's default
/// channel is cleartext: every transfer must use the policy's channel,
/// which overrides it, and the transcript check proves that it did.
struct World {
  World(const ArchivalPolicy& p, std::uint64_t seed)
      : cluster(kNodes, ChannelKind::kPlain, seed),
        rng(seed),
        tsa(rng),
        archive(cluster, p, registry, tsa, rng) {}
  Cluster cluster;
  SchemeRegistry registry;
  ChaChaRng rng;
  TimestampAuthority tsa;
  Archive archive;
};

struct ShardCopy {
  NodeId node;
  std::uint32_t generation;
  Bytes data;
};
using ShardMap = std::map<std::pair<ObjectId, std::uint32_t>, ShardCopy>;

/// Every real-slot shard of the given objects, read off the nodes.
ShardMap snapshot_shards(Cluster& cluster, const std::set<ObjectId>& ids) {
  ShardMap out;
  for (NodeId nd = 0; nd < cluster.size(); ++nd)
    for (const StoredBlob* b : cluster.node(nd).all_blobs())
      if (ids.count(b->object))
        out[{b->object, b->shard_index}] = {nd, b->generation, b->data};
  return out;
}

class Runner {
 public:
  Runner(const WorkloadSpec& w, std::uint64_t seed, const std::string& inject,
         Spans& spans)
      : w_(w), seed_(seed), inject_(inject), spans_(spans) {}

  void round(unsigned r);
  Tally& tally() { return t_; }
  Checks& checks() { return c_; }
  const Gauge& gauge() const { return gauge_; }

 private:
  /// Runs one archive operation and keeps its wall time among the open
  /// phase's calls; an exception counts it failed.
  template <class F>
  bool op(Phase& ph, const char* span, F&& f) {
    ++ph.attempted;
    auto s = spans_.span(span, "archive");
    const double t = now_s();
    try {
      f();
    } catch (const std::exception& e) {
      ++ph.failed;
      std::fprintf(stderr, "OP FAILED: %s: %s\n", span, e.what());
      return false;
    }
    calls_.push_back(now_s() - t);
    return true;
  }

  /// Opens a phase with a reference sample; the phase loop adds one every
  /// Gauge::kIntervalS between calls (maybe_sample).
  void begin_phase() {
    calls_.clear();
    mark_ = gauge_.mark();
    gauge_.sample();
  }

  /// Closes the phase with a reference sample, adds its calls' time to
  /// `ph`, on the wall clock and at reference speed, and returns the
  /// phase's factor (Gauge::factor over the phase's samples).
  double end_phase(Phase& ph, std::uint64_t bytes) {
    gauge_.sample();
    const double f = gauge_.factor(mark_);
    for (double d : calls_) {
      ph.wall_s += d;
      ph.ref_s += d * f;
    }
    ph.bytes += bytes;
    return f;
  }

  bool injected(const char* check) const { return inject_ == check; }

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  std::string inject_;
  Spans& spans_;
  Tally t_;
  Checks c_;
  Gauge gauge_;
  std::size_t mark_ = 0;
  std::vector<double> calls_;  // seconds per successful call of the phase
};

std::uint64_t expected_stored(const ArchivalPolicy& p, const Inputs& in) {
  std::uint64_t total = 0;
  for (const Bytes& d : in.data)
    total += is_sharing(p) ? std::uint64_t{p.n} * d.size()
                           : std::uint64_t{p.n} * ((d.size() + p.k - 1) / p.k);
  return total;
}

void Runner::round(unsigned r) {
  ArchivalPolicy policy = w_.policy;
  if (injected("channel")) policy.channel = ChannelKind::kPlain;
  const Inputs in = make_inputs(w_, seed_, r);
  const unsigned N = w_.objects;
  const std::set<ObjectId> idset(in.ids.begin(), in.ids.end());
  auto round_span = spans_.span("round", "bench", spans_.new_op());

  // ---- set-up: a fresh deployment plus one warm-up put/get/remove, so
  // lazy first-use work (codec caches, tables) lands here, not in put.
  // Timed as one block, construction included.
  Phase& setup = t_.phases["setup"];
  begin_phase();
  const double t0 = now_s();
  std::unique_ptr<World> world;
  {
    auto s = spans_.span("phase.setup", "bench", spans_.new_op());
    world = std::make_unique<World>(policy, splitmix(seed_ ^ (r + 1)));
    Archive& a = world->archive;
    op(setup, "archive.put", [&] { a.put("warmup", in.warmup); });
    op(setup, "archive.get", [&] {
      if (a.get("warmup") != in.warmup) c_.fail("get_bytes", "warm-up object");
    });
    op(setup, "archive.remove", [&] { a.remove("warmup"); });
  }
  const double setup_s = now_s() - t0;
  calls_.clear();  // the block, not its calls, is the set-up time
  const double setup_f = end_phase(setup, 0);
  setup.wall_s += setup_s;
  setup.ref_s += setup_s * setup_f;
  t_.setup_s_raw.push_back(setup_s);
  t_.setup_s.push_back(setup_s * setup_f);

  Cluster& cl = world->cluster;
  Archive& a = world->archive;
  const double sim0 = cl.simulated_ms();
  const NetworkStats net0 = cl.stats();
  const std::size_t tap0 = cl.wiretap().size();
  const std::uint64_t ledger0 = cl.obs().ledger().size();
  t_.logical += in.logical;

  // ---- put
  Phase& put = t_.phases["put"];
  begin_phase();
  {
    auto s = spans_.span("phase.put", "bench", spans_.new_op());
    for (unsigned i = 0; i < N; ++i) {
      gauge_.maybe_sample();
      op(put, "archive.put", [&] {
        const PutReport rep = a.put(in.ids[i], in.data[i]);
        if (!rep.fully_replicated())
          throw std::runtime_error("put left " +
                                   std::to_string(rep.under_replication()) +
                                   " shards unwritten");
      });
    }
  }
  const double put_f = end_phase(put, in.logical);
  for (double d : calls_) {
    t_.put_ms_raw.push_back(d * 1e3);
    t_.put_ms.push_back(d * put_f * 1e3);
  }
  t_.puts += N;
  t_.uploads_put += cl.stats().uploads - net0.uploads;

  if (injected("stored_ratio"))
    for (NodeId nd = 0; nd < cl.size(); ++nd) cl.node(nd).erase(in.ids[0], nd);
  const std::uint64_t want_stored = expected_stored(policy, in);
  auto check_stored = [&](const char* when) {
    const StorageReport rep = a.storage_report();
    if (rep.logical_bytes != in.logical || rep.stored_bytes != want_stored)
      c_.fail("stored_ratio",
              std::string(when) + ": stored " +
                  std::to_string(rep.stored_bytes) + " of logical " +
                  std::to_string(rep.logical_bytes) + ", expected " +
                  std::to_string(want_stored) + " of " +
                  std::to_string(in.logical));
    return rep.stored_bytes;
  };
  check_stored("after put");

  // ---- get
  Phase& get = t_.phases["get"];
  const std::uint64_t down0 = cl.stats().downloads;
  begin_phase();
  {
    auto s = spans_.span("phase.get", "bench", spans_.new_op());
    for (unsigned i = 0; i < N; ++i) {
      gauge_.maybe_sample();
      Bytes back;
      op(get, "archive.get", [&] { back = a.get(in.ids[i]); });
      if (injected("get_bytes") && i == 0 && !back.empty()) back[0] ^= 1;
      if (back != in.data[i]) c_.fail("get_bytes", in.ids[i]);
    }
  }
  const double get_f = end_phase(get, in.logical);
  for (double d : calls_) {
    t_.get_ms_raw.push_back(d * 1e3);
    t_.get_ms.push_back(d * get_f * 1e3);
  }
  t_.gets += N;
  t_.downloads_get += cl.stats().downloads - down0;
  t_.ledger_entries += cl.obs().ledger().size() - ledger0;
  t_.ledger_ops += 2 * N;

  // ---- scrub: healthy passes must repair nothing
  if (injected("scrub_clean")) {
    StoredBlob* b = cl.node(0).all_blobs_mut().front();
    b->data[0] ^= 1;
  }
  Phase& scrub = t_.phases["scrub"];
  Counter& audits = cl.obs().metrics().counter("archive.audit.count");
  const std::uint64_t audits0 = audits.value();
  begin_phase();
  {
    auto s = spans_.span("phase.scrub", "bench", spans_.new_op());
    for (unsigned p = 0; p < w_.scrub_passes; ++p) {
      gauge_.maybe_sample();
      ScrubReport rep;
      op(scrub, "archive.scrub", [&] { rep = a.scrub(); });
      scrub.attempted += N - 1;  // a pass is one operation per object
      if (rep.objects != N || rep.shards_repaired != 0 ||
          rep.unrecoverable != 0)
        c_.fail("scrub_clean", "pass audited " + std::to_string(rep.objects) +
                                   " objects, repaired " +
                                   std::to_string(rep.shards_repaired));
    }
  }
  end_phase(scrub, in.logical * w_.scrub_passes);
  t_.challenges += (audits.value() - audits0) * policy.n;
  t_.scrubbed += std::uint64_t{N} * w_.scrub_passes;

  // ---- renew: re-encryption (cloud) or proactive refresh (sharing)
  const ShardMap before = snapshot_shards(cl, idset);
  std::map<ObjectId, std::uint32_t> gen0;
  for (const ObjectId& id : in.ids) gen0[id] = a.manifest(id).generation;
  const unsigned passes = is_sharing(policy) ? w_.refresh_passes : 1;
  Phase& renew = t_.phases["renew"];
  const std::uint64_t moved0 = cl.stats().bytes_up + cl.stats().bytes_down;
  begin_phase();
  {
    auto s = spans_.span("phase.renew", "bench", spans_.new_op());
    if (is_sharing(policy)) {
      const unsigned run = injected("renew_generation") ? passes - 1 : passes;
      for (unsigned p = 0; p < run; ++p) {
        gauge_.maybe_sample();
        op(renew, "archive.refresh", [&] { a.refresh(); });
      }
      renew.attempted += std::uint64_t{N} * passes - run;
    } else {
      op(renew, "archive.migrate", [&] {
        MigrationSpec spec;
        spec.kind = MigrationKind::kReencrypt;
        spec.fresh = {SchemeId::kChaCha20};
        MigrationEngine engine(a, spec);
        if (injected("renew_generation"))
          engine.step();
        else
          engine.run();
      });
      renew.attempted += N - 1;
    }
  }
  end_phase(renew, in.logical * passes);
  t_.renew_bytes += cl.stats().bytes_up + cl.stats().bytes_down - moved0;
  t_.renew_passes_logical += in.logical * passes;

  if (injected("renew_differs")) {
    const auto& [key, copy] = *before.begin();
    StoredBlob b;
    b.object = key.first;
    b.shard_index = key.second;
    b.generation = a.manifest(key.first).generation;
    b.data = copy.data;
    cl.node(copy.node).put(std::move(b));
  }
  const ShardMap after = snapshot_shards(cl, idset);
  for (const ObjectId& id : in.ids) {
    const ObjectManifest& m = a.manifest(id);
    if (m.generation != gen0[id] + passes)
      c_.fail("renew_generation", id + " at generation " +
                                      std::to_string(m.generation) +
                                      ", expected " +
                                      std::to_string(gen0[id] + passes));
    if (!is_sharing(policy) &&
        m.current_ciphers() != std::vector<SchemeId>{SchemeId::kChaCha20})
      c_.fail("renew_stack", id + " is not on the ChaCha20 stack");
  }
  if (after.size() != before.size())
    c_.fail("renew_differs", std::to_string(after.size()) +
                                 " shards after renewal, " +
                                 std::to_string(before.size()) + " before");
  for (const auto& [key, copy] : before) {
    const auto it = after.find(key);
    if (it == after.end() || it->second.data == copy.data ||
        it->second.generation != a.manifest(key.first).generation)
      c_.fail("renew_differs",
              key.first + " shard " + std::to_string(key.second) +
                  " is missing, unchanged or stale after renewal");
  }

  // ---- node-loss repair: wipe the shards on n - threshold home nodes,
  // bring the nodes back empty, and let one scrub pass heal them.
  std::set<NodeId> home_set;
  for (const auto& [key, copy] : after) home_set.insert(copy.node);
  std::vector<NodeId> home(home_set.begin(), home_set.end());
  std::mt19937_64 pick(splitmix(seed_ * 7919 + r));
  for (std::size_t i = home.size(); i > 1; --i)
    std::swap(home[i - 1], home[pick() % i]);
  const unsigned lose = policy.n - policy.reconstruction_threshold();
  const std::vector<NodeId> lost(home.begin(), home.begin() + lose);
  const std::vector<NodeId> others(home.begin() + lose, home.end());
  if (!injected("repair_count"))
    for (NodeId nd : lost) {
      cl.fail_node(nd);
      for (const ObjectId& id : in.ids) cl.node(nd).erase_object(id);
      cl.restore_node(nd);
    }
  Phase& repair = t_.phases["repair"];
  begin_phase();
  ScrubReport healed;
  {
    auto s = spans_.span("phase.repair", "bench", spans_.new_op());
    op(repair, "archive.scrub", [&] { healed = a.scrub(); });
    repair.attempted += N - 1;
  }
  end_phase(repair, in.logical);
  // Erasure repair rewrites only the lost shards; a sharing repair is a
  // dealer re-share that rewrites all n at a new generation.
  const std::uint64_t want_repaired =
      std::uint64_t{N} * (is_sharing(policy) ? policy.n : lose);
  if (healed.shards_repaired != want_repaired || healed.unrecoverable != 0)
    c_.fail("repair_count", "repaired " +
                                std::to_string(healed.shards_repaired) +
                                " shards, expected " +
                                std::to_string(want_repaired));
  t_.repaired += healed.shards_repaired;
  t_.repair_objects += N;

  // Measured phases end here: the WAN bill and traffic stop counting.
  t_.sim_ms += cl.simulated_ms() - sim0;
  t_.bytes_up += cl.stats().bytes_up - net0.bytes_up;
  t_.bytes_down += cl.stats().bytes_down - net0.bytes_down;
  t_.refresh_bytes += cl.stats().refresh_bytes - net0.refresh_bytes;
  for (std::size_t i = tap0; i < cl.wiretap().size(); ++i) {
    const WiretapRecord& rec = cl.wiretap()[i];
    t_.wiretap_bytes += rec.payload.data.size();
    for (const Bytes& f : rec.transcript.frames) t_.wiretap_bytes += f.size();
  }
  t_.io_retries +=
      a.io_stats().upload_retries + a.io_stats().download_retries;

  if (injected("repair_slots"))
    cl.node(lost[0]).erase_object(in.ids[0]);
  for (NodeId nd : lost)
    for (const auto& [key, copy] : after) {
      if (copy.node != nd) continue;
      const StoredBlob* b = cl.node(nd).get(key.first, key.second);
      if (b == nullptr || b->generation != a.manifest(key.first).generation)
        c_.fail("repair_slots", key.first + " shard " +
                                    std::to_string(key.second) +
                                    " not rewritten on node " +
                                    std::to_string(nd));
    }

  // Reads with n - threshold *other* home nodes down must still match.
  std::vector<NodeId> down(others.begin(), others.begin() + lose);
  if (injected("op_failure")) down.push_back(lost[0]);
  for (NodeId nd : down) cl.fail_node(nd);
  Phase& degraded = t_.phases["degraded_get"];
  begin_phase();
  {
    auto s = spans_.span("phase.degraded_get", "bench", spans_.new_op());
    for (unsigned i = 0; i < N; ++i) {
      gauge_.maybe_sample();
      Bytes back;
      if (!op(degraded, "archive.get", [&] { back = a.get(in.ids[i]); }))
        continue;
      if (injected("degraded_get") && i == 0) back[0] ^= 1;
      if (back != in.data[i]) c_.fail("degraded_get", in.ids[i]);
    }
  }
  end_phase(degraded, in.logical);
  for (NodeId nd : down) cl.restore_node(nd);

  t_.stored += check_stored("end of round");

  // Every conversation must have run on the policy's channel.
  const SchemeId want_ka = w_.policy.channel == ChannelKind::kQkd
                               ? SchemeId::kOneTimePad
                               : SchemeId::kEcdhSecp256k1;
  for (const WiretapRecord& rec : cl.wiretap())
    if (rec.transcript.key_agreement != want_ka) {
      c_.fail("channel", std::string("a conversation ran on ") +
                             scheme_name(rec.transcript.key_agreement));
      break;
    }

  if (injected("ledger_chain")) {
    auto& recs = const_cast<std::vector<AuditRecord>&>(
        cl.obs().ledger().records());
    recs[recs.size() / 2].outcome += "!";
  }
  const ChainVerdict v = cl.obs().ledger().verify_chain();
  if (!v.ok)
    c_.fail("ledger_chain", "record " + std::to_string(v.first_bad) + ": " +
                                v.reason);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

/// The end-to-end metrics, timings at reference speed or, with `raw`, on
/// the wall clock.
std::vector<Metric> end_to_end(const WorkloadSpec& w, Tally& t, bool raw) {
  auto mb_s = [&](const char* phase) {
    const Phase& p = t.phases[phase];
    return p.bytes / 1e6 / (raw ? p.wall_s : p.ref_s);
  };
  const std::vector<double>& setup = raw ? t.setup_s_raw : t.setup_s;
  const std::vector<double>& put = raw ? t.put_ms_raw : t.put_ms;
  const std::vector<double>& get = raw ? t.get_ms_raw : t.get_ms;
  const double gb = t.logical / 1e9;
  return {
      {"setup_s", median(setup), "s"},
      {"put_mb_s", mb_s("put"), "MB/s"},
      {"put_ms_p50", median(put), "ms"},
      {"put_ms_tail", percentile(put, w.tail_pct), "ms"},
      {"get_mb_s", mb_s("get"), "MB/s"},
      {"get_ms_p50", median(get), "ms"},
      {"get_ms_tail", percentile(get, w.tail_pct), "ms"},
      {"scrub_mb_s", mb_s("scrub"), "MB/s"},
      {"renew_mb_s", mb_s("renew"), "MB/s"},
      {"repair_mb_s", mb_s("repair"), "MB/s"},
      {"wan_s_per_gb", t.sim_ms / 1e3 / gb, "s/GB"},
      {"stored_per_logical",
       static_cast<double>(t.stored) / static_cast<double>(t.logical),
       "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const WorkloadSpec& w, Tally& t,
                              const LayerCosts& c, double put_p50_ms,
                              double ref_ms, std::vector<Metric> probed) {
  const double logical = static_cast<double>(t.logical);
  auto per = [](std::uint64_t a, std::uint64_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const double uploads = per(t.uploads_put, t.puts);
  const double ledger = per(t.ledger_entries, t.ledger_ops);
  const unsigned n = w.policy.n;
  // What one put spends in the probed layers, at the median object size:
  // per shard a conversation, a frame, serde, and five SHA-256 passes
  // (shard hash plus four audit challenges); per object the cipher, the
  // encoding, the Merkle tree, the entropy estimate, the stamp, the
  // ledger appends and the two registry lookups of op_begin/op_end.
  const double attributed_s =
      uploads * (c.handshake + c.channel_shard + c.serde_shard) +
      5.0 * n * c.sha_shard + c.cipher_object + c.encode_object + c.merkle +
      c.entropy_object + c.stamp + ledger * c.ledger_append +
      2 * c.counter_lookup;
  std::vector<Metric> out = std::move(probed);
  std::vector<Metric> counted = {
      {"node.uploads_per_put", uploads, "count"},
      {"node.downloads_per_get", per(t.downloads_get, t.gets), "count"},
      {"node.bytes_up_per_logical", t.bytes_up / logical, "ratio"},
      {"node.bytes_down_per_logical", t.bytes_down / logical, "ratio"},
      {"node.wiretap_bytes_per_logical", t.wiretap_bytes / logical, "ratio"},
      {"node.refresh_bytes_per_logical", t.refresh_bytes / logical, "ratio"},
      {"archive.put.unattributed_ms", put_p50_ms - attributed_s * 1e3, "ms"},
      {"archive.io.retries", static_cast<double>(t.io_retries), "count"},
      {"archive.scrub.challenges_per_object", per(t.challenges, t.scrubbed),
       "count"},
      {"archive.repair.shards", per(t.repaired, t.repair_objects),
       "shards/object"},
      {"archive.renew.bytes_per_logical",
       per(t.renew_bytes, t.renew_passes_logical), "ratio"},
      {"obs.ledger_entries_per_op", ledger, "count"},
      {"bench.reference_loop_ms", ref_ms, "ms"},
  };
  out.insert(out.end(), counted.begin(), counted.end());
  return out;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: archive_bench --workload <small_cloud|bulk_cloud|"
               "lincos_refresh> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>] [--inject <check>]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload, trace_file, inject;
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::atof(v.c_str());
    else if (k == "--trace") trace = std::atoi(v.c_str());
    else if (k == "--trace-file") trace_file = v;
    else if (k == "--inject") inject = v;
    else return usage();
  }
  const std::vector<WorkloadSpec> all = workloads();
  const auto w = std::find_if(all.begin(), all.end(), [&](const auto& x) {
    return workload == x.name;
  });
  if (w == all.end() || seconds < 0 || (trace != 0 && trace != 1))
    return usage();

  Spans spans(trace == 1);
  Runner runner(*w, seed, inject, spans);
  const double start = now_s();
  unsigned rounds = 0;
  std::map<std::string, double> prev_wall;
  for (;;) {
    runner.round(rounds++);
    const double elapsed = now_s() - start;
    const Tally& t = runner.tally();
    std::fprintf(stderr, "round %u wall s:", rounds - 1);
    for (const auto& [name, p] : t.phases) {
      std::fprintf(stderr, " %s %.3f", name.c_str(),
                   p.wall_s - prev_wall[name]);
      prev_wall[name] = p.wall_s;
    }
    std::fprintf(stderr, "\n");
    bool failed = !runner.checks().ok();
    for (const auto& [name, p] : t.phases) failed |= p.failed > 0;
    if (failed || elapsed > kHardStopSeconds) break;
    if (rounds >= w->min_rounds && elapsed + elapsed / rounds > seconds) break;
  }
  Tally& t = runner.tally();

  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [name, p] : t.phases) {
    std::printf(
        "phase %-12s attempted %6llu failed %llu wall %.3f s, at reference "
        "speed %.3f s\n",
        name.c_str(), static_cast<unsigned long long>(p.attempted),
        static_cast<unsigned long long>(p.failed), p.wall_s, p.ref_s);
    attempted += p.attempted;
    failed += p.failed;
  }
  std::printf("rounds %u, %zu puts, %zu gets, tail = p%g\n", rounds,
              t.put_ms.size(), t.get_ms.size(), w->tail_pct);

  const double ref_ms = median(runner.gauge().samples());
  std::printf("reference_loop_ms %.4f over %zu samples\n", ref_ms,
              runner.gauge().samples().size());
  std::printf("raw-end-to-end %s\n",
              json_metrics(end_to_end(*w, t, true)).c_str());
  std::vector<Metric> metrics = end_to_end(*w, t, false);
  if (trace == 1) {
    std::printf("traced-end-to-end %s\n", json_metrics(metrics).c_str());
    LayerCosts costs;
    std::vector<Metric> probed = probe_layers(
        w->policy, static_cast<std::size_t>(w->median_bytes), seed, spans,
        costs);
    // The probes are wall-clock timings, so the put median is too.
    metrics = per_layer(*w, t, costs, median(t.put_ms_raw), ref_ms,
                        std::move(probed));
    if (!trace_file.empty()) {
      if (!spans.write_chrome_trace(trace_file))
        runner.checks().fail("trace_file", "cannot write " + trace_file);
      else
        std::printf("trace: %zu spans written to %s\n", spans.size(),
                    trace_file.c_str());
    }
  }
  bool finite = true;
  for (const Metric& m : metrics) finite &= std::isfinite(m.value);
  if (!finite) runner.checks().fail("metrics", "a metric is not finite");
  for (Metric& m : metrics)
    if (!std::isfinite(m.value)) m.value = -1;

  const bool correct = runner.checks().ok();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(metrics).c_str());
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "archive_bench: %s\n", e.what());
    return 1;
  }
}
