#include "common/zipf.hh"

#include <bit>
#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

namespace getm {

double
ZipfianGenerator::zeta(std::uint64_t n, double theta)
{
    // A sweep builds many generators over one (n, theta), each an
    // O(n) sum of pow() terms, and getm-sweep builds them on pool
    // threads. The lock is held across the sum, so each pair is
    // summed once per process, always in the same order.
    static std::mutex mutex;
    static std::map<std::pair<std::uint64_t, std::uint64_t>, double> memo;
    const std::lock_guard<std::mutex> lock(mutex);
    const auto [it, inserted] = memo.try_emplace(
        {n, std::bit_cast<std::uint64_t>(theta)}, 0.0);
    if (inserted) {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= n; i++)
            sum += 1.0 / std::pow(double(i), theta);
        it->second = sum;
    }
    return it->second;
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n(n), theta(theta)
{
    assert(n >= 1);
    assert(theta >= 0.0 && theta < 1.0);
    alpha = 1.0 / (1.0 - theta);
    zetan = zeta(n, theta);
    // Gray et al. eta: corrects the closed form so the rank-2..n tail
    // integrates to the right mass.
    eta = (1.0 - std::pow(2.0 / double(n), 1.0 - theta))
        / (1.0 - zeta(2, theta) / zetan);
}

std::uint64_t
ZipfianGenerator::next(Rng &rng) const
{
    double u = rng.uniform();
    double uz = u * zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta))
        return 1;
    auto rank = std::uint64_t(
        double(n) * std::pow(eta * u - eta + 1.0, alpha));
    // Floating-point roundoff can land exactly on n.
    return rank >= n ? n - 1 : rank;
}

double
ZipfianGenerator::mass(std::uint64_t rank) const
{
    assert(rank < n);
    return 1.0 / std::pow(double(rank + 1), theta) / zetan;
}

namespace {

/** Modular inverse of odd @p a modulo 2^64 (Newton iteration). */
std::uint64_t
oddInverse(std::uint64_t a)
{
    std::uint64_t x = a; // Correct to 3 bits.
    for (int i = 0; i < 5; i++)
        x *= 2 - a * x; // Doubles correct bits per step.
    return x;
}

} // namespace

ScrambledZipfian::ScrambledZipfian(std::uint64_t n, double theta,
                                   std::uint64_t salt)
    : zipf(n, theta), n(n)
{
    bits = 1;
    while ((std::uint64_t(1) << bits) < n && bits < 63)
        bits++;
    mask = (std::uint64_t(1) << bits) - 1;
    std::uint64_t x = salt;
    mulOdd = Rng::splitmix64(x) | 1;
    mulInv = oddInverse(mulOdd);
    xorConst = Rng::splitmix64(x) & mask;
}

std::uint64_t
ScrambledZipfian::scramble(std::uint64_t rank) const
{
    // Cycle-walk an invertible mix on `bits` bits until it lands back
    // inside [0, n). Because the mix permutes [0, 2^bits) and n is more
    // than half of that range, the walk terminates quickly (expected
    // < 2 steps) and the restriction to [0, n) is itself a bijection.
    std::uint64_t v = rank;
    do {
        v = (v * mulOdd) & mask;
        v ^= xorConst;
        v ^= (v >> (bits / 2 + 1)) & mask;
        v = (v * mulOdd) & mask;
    } while (v >= n);
    return v;
}

std::uint64_t
ScrambledZipfian::rankOf(std::uint64_t key) const
{
    std::uint64_t v = key;
    do {
        v = (v * mulInv) & mask;
        // Invert the xorshift: shifts of >= width/2 self-invert in one
        // re-application.
        v ^= (v >> (bits / 2 + 1)) & mask;
        v ^= xorConst;
        v = (v * mulInv) & mask;
    } while (v >= n);
    return v;
}

std::uint64_t
ScrambledZipfian::hottestIn(std::uint64_t first, std::uint64_t last) const
{
    std::uint64_t best = first;
    std::uint64_t bestRank = rankOf(first);
    for (std::uint64_t key = first + 1; key <= last; ++key) {
        const std::uint64_t rank = rankOf(key);
        if (rank < bestRank) {
            best = key;
            bestRank = rank;
        }
    }
    return best;
}

} // namespace getm
