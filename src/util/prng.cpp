#include "util/prng.hpp"

#include <bit>

namespace dbfs::util {

/// T^(2^i) for i = 0..63, where T is one draw's state update. Power i
/// is stored by columns: col[i][j] is the state that unit state j (only
/// bit j%64 of word j/64 set) turns into, so applying it XORs together
/// the columns of the set bits.
struct JumpPowers {
  using State = std::uint64_t[4];
  State col[64][256];

  static void apply(const State (&power)[256], State& s) noexcept {
    State out{};
    for (int w = 0; w < 4; ++w) {
      for (std::uint64_t bits = s[w]; bits != 0; bits &= bits - 1) {
        const State& c = power[64 * w + std::countr_zero(bits)];
        for (int k = 0; k < 4; ++k) out[k] ^= c[k];
      }
    }
    for (int k = 0; k < 4; ++k) s[k] = out[k];
  }

  JumpPowers() noexcept {
    for (int j = 0; j < 256; ++j) {
      State& c = col[0][j];
      for (auto& word : c) word = 0;
      c[j / 64] = std::uint64_t{1} << (j % 64);
      Xoshiro256::step(c);
    }
    // T^(2^i) = T^(2^(i-1)) applied to each column of T^(2^(i-1)).
    for (int i = 1; i < 64; ++i) {
      for (int j = 0; j < 256; ++j) {
        for (int k = 0; k < 4; ++k) col[i][j][k] = col[i - 1][j][k];
        apply(col[i - 1], col[i][j]);
      }
    }
  }
};

void Xoshiro256::advance(std::uint64_t steps) noexcept {
  static const JumpPowers powers;
  for (int i = 0; steps != 0; ++i, steps >>= 1) {
    if (steps & 1) JumpPowers::apply(powers.col[i], state_);
  }
}

}  // namespace dbfs::util
