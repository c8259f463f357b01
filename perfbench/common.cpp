#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pb {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

volatile std::uint64_t g_kernel_sink = 1;

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

/// 256-bit schoolbook multiplies with a 2^256 - 977-style fold, as in a
/// secp256k1 field multiply.
std::uint64_t kernel_bignum(std::uint64_t seed, int iterations) {
  std::uint64_t x[4] = {seed | 1, seed + 3, seed + 5, seed + 7};
  const std::uint64_t y[4] = {0x9E3779B97F4A7C15ULL, 0xBF58476D1CE4E5B9ULL,
                              0x94D049BB133111EBULL, 12345};
  for (int it = 0; it < iterations; ++it) {
    std::uint64_t r[8] = {};
    for (int i = 0; i < 4; ++i) {
      unsigned __int128 c = 0;
      for (int j = 0; j < 4; ++j) {
        const unsigned __int128 p =
            static_cast<unsigned __int128>(x[i]) * y[j] + r[i + j] + c;
        r[i + j] = static_cast<std::uint64_t>(p);
        c = p >> 64;
      }
      r[i + 4] = static_cast<std::uint64_t>(c);
    }
    unsigned __int128 c = 0;
    for (int i = 0; i < 4; ++i) {
      const unsigned __int128 p =
          static_cast<unsigned __int128>(r[i + 4]) * 977u + r[i] + c;
      x[i] = static_cast<std::uint64_t>(p);
      c = p >> 64;
    }
    x[0] ^= static_cast<std::uint64_t>(c);
  }
  return x[0] ^ x[3];
}

/// SHA-256-style message schedule and rounds over `blocks` blocks.
std::uint64_t kernel_rounds(std::uint64_t seed, int blocks) {
  std::uint32_t h[8], w[64];
  for (int i = 0; i < 8; ++i) h[i] = static_cast<std::uint32_t>(seed) + i;
  for (int b = 0; b < blocks; ++b) {
    for (int i = 0; i < 16; ++i) w[i] = h[i & 7] + b * i;
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h[0], bb = h[1], c = h[2], d = h[3], e = h[4], f = h[5],
                  g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t t1 = hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                               ((e & f) ^ (~e & g)) + 0x428a2f98u * i + w[i];
      const std::uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                               ((a & bb) ^ (a & c) ^ (bb & c));
      hh = g, g = f, f = e, e = d + t1, d = c, c = bb, bb = a, a = t1 + t2;
    }
    h[0] += a, h[1] += bb, h[2] += c, h[3] += d;
    h[4] += e, h[5] += f, h[6] += g, h[7] += hh;
  }
  return h[0] ^ h[7];
}

/// AES-round-style lookups in four 1 KiB tables.
std::uint64_t kernel_tables(std::uint64_t seed, int rounds) {
  static const auto tables = [] {
    std::vector<std::uint32_t> t(4 * 256);
    for (std::uint32_t i = 0; i < t.size(); ++i)
      t[i] = (i & 255) * 0x01010101u * (i / 256 + 3) ^ (i << 7);
    return t;
  }();
  const std::uint32_t* T = tables.data();
  std::uint32_t s0 = seed, s1 = seed + 1, s2 = seed + 2, s3 = seed + 3;
  for (int i = 0; i < rounds; ++i) {
    const std::uint32_t t0 = T[s0 & 255] ^ T[256 + ((s1 >> 8) & 255)] ^
                             T[512 + ((s2 >> 16) & 255)] ^ T[768 + (s3 >> 24)] ^ s3;
    const std::uint32_t t1 = T[s1 & 255] ^ T[256 + ((s2 >> 8) & 255)] ^
                             T[512 + ((s3 >> 16) & 255)] ^ T[768 + (s0 >> 24)] ^ s0;
    const std::uint32_t t2 = T[s2 & 255] ^ T[256 + ((s3 >> 8) & 255)] ^
                             T[512 + ((s0 >> 16) & 255)] ^ T[768 + (s1 >> 24)] ^ s1;
    const std::uint32_t t3 = T[s3 & 255] ^ T[256 + ((s0 >> 8) & 255)] ^
                             T[512 + ((s1 >> 16) & 255)] ^ T[768 + (s2 >> 24)] ^ s2;
    s0 = t0, s1 = t1, s2 = t2, s3 = t3;
  }
  return s0 ^ s3;
}

}  // namespace

void Gauge::sample() {
  const double t = now_s();
  std::uint64_t seed = g_kernel_sink;  // volatile: nothing folds
  seed ^= kernel_bignum(seed, 6000);
  seed ^= kernel_rounds(seed, 750);
  seed ^= kernel_tables(seed, 45000);
  g_kernel_sink = seed | 1;
  last_s_ = now_s();
  ms_.push_back((last_s_ - t) * 1e3);
}

void Gauge::maybe_sample() {
  if (now_s() - last_s_ >= kIntervalS) sample();
}

double Gauge::factor(std::size_t from) const {
  return kReferenceMs /
         median(std::vector<double>(ms_.begin() + from, ms_.end()));
}

Spans::Scope Spans::span(const char* name, const char* layer,
                         std::uint64_t op) {
  if (!enabled_) return Scope(nullptr, 0);
  std::uint64_t parent = 0;
  if (!open_.empty()) {
    const Record& p = records_[open_.back()];
    parent = p.id;
    if (op == 0) op = p.op;
  }
  records_.push_back(Record{name, layer, op, records_.size() + 1, parent,
                            (now_s() - origin_s_) * 1e6, 0});
  open_.push_back(records_.size() - 1);
  return Scope(this, records_.size() - 1);
}

Spans::Scope::~Scope() {
  if (owner_ == nullptr) return;
  Record& r = owner_->records_[index_];
  r.dur_us = (now_s() - owner_->origin_s_) * 1e6 - r.t0_us;
  // Scopes are strictly nested (RAII on one thread), so this span is
  // the innermost open one.
  owner_->open_.pop_back();
}

bool Spans::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Names and layers are string literals of [a-z0-9_.]: no escaping.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"op_id\":%llu,\"span_id\":%llu,"
                 "\"parent_id\":%llu}}",
                 i ? "," : "", r.name, r.layer, r.t0_us, r.dur_us,
                 static_cast<unsigned long long>(r.op),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb
