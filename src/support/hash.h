// Deterministic mixing primitives every layer shares: the FNV-1a 64-bit
// digest (snapshot identity, fuzz case digests, device transmit digests) and
// the SplitMix64 generator (campaign job seeds, traffic and fuzz streams).

#ifndef SRC_SUPPORT_HASH_H_
#define SRC_SUPPORT_HASH_H_

#include <cstddef>
#include <cstdint>

namespace opec_support {

constexpr uint64_t kFnv1a64Basis = 0xCBF29CE484222325ull;

// FNV-1a 64 over `n` bytes, continuing from digest `h`.
inline uint64_t Fnv1a64(const void* data, size_t n, uint64_t h = kFnv1a64Basis) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ull;
  }
  return h;
}

// SplitMix64: small, splittable, and completely decoupled from the C
// library's global rand() state.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, bound); bound 0 returns 0.
  uint64_t Below(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }
  uint32_t Next32() { return static_cast<uint32_t>(Next() >> 32); }

  // Seed for job `index` of a campaign seeded with `campaign_seed`.
  //
  // Mixing contract: distinct (campaign_seed, index) pairs must yield
  // distinct, statistically independent streams. Both inputs therefore pass
  // through the full SplitMix64 finalizer *sequentially*: the campaign seed
  // is finalized first (one Next()), then the index — scaled by an odd
  // constant so nearby indices land far apart in gamma space — offsets the
  // finalized state before a second Next(). An earlier scheme XORed
  // (index * kOdd + 1) straight into the raw seed before a single Next();
  // being XOR-linear pre-finalizer, it collided whole streams across
  // campaigns whenever campaign_seed ^ campaign_seed' ==
  // (index * kOdd + 1) ^ (index' * kOdd + 1) — in particular index == 0
  // degenerated to seed ^ 1, so JobSeed(s, 0) equaled
  // JobSeed(s ^ 1 ^ (i * kOdd + 1), i) for every i. Finalizing between the
  // two mixes breaks the linearity (see campaign_test.cc, JobSeedMixing*).
  static uint64_t JobSeed(uint64_t campaign_seed, uint64_t index) {
    constexpr uint64_t kOdd = 0xA24BAED4963EE407ull;
    SplitMix64 g(campaign_seed);
    SplitMix64 h(g.Next() + index * kOdd);
    return h.Next();
  }

 private:
  uint64_t state_;
};

}  // namespace opec_support

#endif  // SRC_SUPPORT_HASH_H_
