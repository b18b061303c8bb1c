#include "paper/primes.hpp"

#include <algorithm>
#include <array>

namespace glouvain::util {

namespace {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t powmod(std::uint64_t a, std::uint64_t e, std::uint64_t m) noexcept {
  std::uint64_t r = 1;
  a %= m;
  while (e) {
    if (e & 1) r = mulmod(r, a, m);
    a = mulmod(a, a, m);
    e >>= 1;
  }
  return r;
}

bool miller_rabin(std::uint64_t n, std::uint64_t a) noexcept {
  if (n % a == 0) return n == a;
  std::uint64_t d = n - 1;
  int s = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++s;
  }
  std::uint64_t x = powmod(a, d, n);
  if (x == 1 || x == n - 1) return true;
  for (int i = 1; i < s; ++i) {
    x = mulmod(x, x, n);
    if (x == n - 1) return true;
  }
  return false;
}

}  // namespace

bool is_prime(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  // Sprp bases proven sufficient for all n < 2^64 (Sinclair, 2011).
  for (std::uint64_t a : {2ULL, 325ULL, 9375ULL, 28178ULL, 450775ULL, 9780504ULL, 1795265022ULL}) {
    if (!miller_rabin(n, a)) return false;
  }
  return true;
}

std::uint64_t next_prime_atleast(std::uint64_t n) noexcept {
  if (n <= 2) return 2;
  if ((n & 1) == 0) ++n;
  while (!is_prime(n)) n += 2;
  return n;
}

PrimeTable::PrimeTable(std::uint64_t first, std::uint64_t limit, double factor) {
  std::uint64_t target = std::max<std::uint64_t>(first, 2);
  while (target <= limit) {
    std::uint64_t p = next_prime_atleast(target);
    ladder_.push_back(p);
    auto next = static_cast<std::uint64_t>(static_cast<double>(p) * factor);
    target = std::max(next, p + 2);
  }
}

std::uint64_t PrimeTable::lookup(std::uint64_t x) const noexcept {
  auto it = std::lower_bound(ladder_.begin(), ladder_.end(), x);
  if (it == ladder_.end()) return next_prime_atleast(x);
  return *it;
}

const PrimeTable& PrimeTable::global() {
  static const PrimeTable table;
  return table;
}

std::uint64_t hash_capacity_for_degree(std::uint64_t degree) noexcept {
  const std::uint64_t want = std::max<std::uint64_t>(
      3, static_cast<std::uint64_t>(1.5 * static_cast<double>(degree)) + 1);
  return PrimeTable::global().lookup(want);
}

namespace {

constexpr std::size_t kParamsLutDegrees = 4096;

HashTableParams make_hash_params(std::uint64_t degree) noexcept {
  const std::uint64_t cap = hash_capacity_for_degree(degree);
  HashTableParams p;
  p.capacity = static_cast<std::uint32_t>(cap);
  p.magic_capacity = ~std::uint64_t{0} / cap + 1;
  p.magic_capacity_minus1 = ~std::uint64_t{0} / (cap - 1) + 1;
  return p;
}

}  // namespace

HashTableParams hash_params_for_degree(std::uint64_t degree) noexcept {
  // Dense per-degree table (not per-prime): the kernel index is the
  // degree itself, so the lookup is one load. ~100KB of static data,
  // built once, heap-free.
  static const auto lut = [] {
    std::array<HashTableParams, kParamsLutDegrees + 1> t{};
    for (std::size_t d = 0; d <= kParamsLutDegrees; ++d) {
      t[d] = make_hash_params(d);
    }
    return t;
  }();
  if (degree <= kParamsLutDegrees) return lut[degree];
  return make_hash_params(degree);
}

}  // namespace glouvain::util
