#include "yardstick.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

namespace getm::perfbench {

namespace {

/** Results fold into this so no step can be optimized away. */
volatile std::uint64_t yardstickSink = 0;

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** A single cycle through all @p n slots (Sattolo's shuffle), so a
 *  chase visits every slot in an order the prefetcher cannot follow. */
std::vector<std::uint32_t>
chaseTable(std::uint32_t n, std::uint64_t seed)
{
    std::vector<std::uint32_t> next(n);
    std::iota(next.begin(), next.end(), 0u);
    for (std::uint32_t i = n - 1; i > 0; --i) {
        const auto j = static_cast<std::uint32_t>(splitmix64(seed) % i);
        std::swap(next[i], next[j]);
    }
    return next;
}

std::uint32_t
chase(const std::vector<std::uint32_t> &next, std::uint32_t steps)
{
    std::uint32_t at = 0;
    for (std::uint32_t s = 0; s < steps; ++s)
        at = next[at];
    return at;
}

std::uint64_t
mapChurn(unsigned keys, std::uint64_t seed)
{
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::uint64_t state = seed, sum = 0;
    for (unsigned i = 0; i < keys; ++i)
        map[splitmix64(state) % (keys * 2)] += i;
    state = seed;
    for (unsigned i = 0; i < 2 * keys; ++i) {
        auto it = map.find(splitmix64(state) % (keys * 2));
        if (it != map.end()) {
            sum += it->second;
            if (i & 1)
                map.erase(it);
        }
    }
    return sum + map.size();
}

std::uint64_t
sortRandom(unsigned n, std::uint64_t seed)
{
    std::vector<std::uint64_t> values(n);
    for (auto &v : values)
        v = splitmix64(seed);
    std::sort(values.begin(), values.end());
    return values[n / 2];
}

} // namespace

double
yardstickSeconds()
{
    static const std::vector<std::uint32_t> llc =
        chaseTable(1u << 20, 1); // 4 MiB
    static const std::vector<std::uint32_t> l2 =
        chaseTable(1u << 18, 2); // 1 MiB
    static const std::vector<std::uint32_t> small =
        chaseTable(1u << 16, 3); // 256 KiB

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t check = chase(llc, 200'000);
    check += chase(l2, 500'000);
    check += chase(small, 1'500'000);
    check += mapChurn(60'000, 4);
    check += sortRandom(100'000, 5);
    const auto t1 = std::chrono::steady_clock::now();
    yardstickSink = yardstickSink + check;
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace getm::perfbench
