/**
 * @file
 * Deterministic Zipfian and scrambled-Zipfian rank generators.
 *
 * Implements the rejection-free closed form of Gray et al. ("Quickly
 * generating billion-record synthetic databases", SIGMOD '94), the same
 * shape YCSB's ZipfianGenerator uses: the zeta normalisation constant is
 * precomputed once, after which each draw costs two pow() calls and no
 * rejection loop. theta = 0 degenerates to the uniform distribution;
 * theta -> 1 approaches the classic 1/rank law (theta must stay < 1).
 * Each (n, theta) normaliser is computed once per process and shared
 * by every generator over that pair, on any thread.
 *
 * ZipfianGenerator::next() returns a *rank*: 0 is the hottest item, 1
 * the second hottest, and so on. Real key spaces are not sorted by
 * popularity, so ScrambledZipfian composes the rank draw with a seeded
 * *bijective* permutation of [0, n) (a cycle-walking xorshift-multiply
 * permutation). Unlike YCSB's hash-mod scramble, a bijection preserves
 * the marginal distribution exactly: the multiset of per-key masses is
 * untouched, only which key carries which mass changes. rankOf() inverts
 * the permutation, which is what lets the conflict profiler's hot-address
 * report be translated back into "zipf rank r" labels.
 *
 * All draws consume exactly one Rng value, so generation is reproducible
 * across platforms and independent of call-site inlining.
 */

#ifndef GETM_COMMON_ZIPF_HH
#define GETM_COMMON_ZIPF_HH

#include <cstdint>

#include "common/rng.hh"

namespace getm {

/** Rank-ordered Zipfian draws over [0, n) (rank 0 = hottest). */
class ZipfianGenerator
{
  public:
    /**
     * @param n     Item count (>= 1).
     * @param theta Skew in [0, 1): 0 = uniform; 0.99 = YCSB default.
     */
    ZipfianGenerator(std::uint64_t n, double theta);

    /** Draw one rank in [0, n); consumes one value from @p rng. */
    std::uint64_t next(Rng &rng) const;

    /** Analytic probability mass of @p rank. */
    double mass(std::uint64_t rank) const;

    std::uint64_t items() const { return n; }
    double skew() const { return theta; }

    /** Generalized harmonic number sum_{i=1..n} 1/i^theta, memoized
     *  per (n, bit pattern of theta); thread-safe. */
    static double zeta(std::uint64_t n, double theta);

  private:
    std::uint64_t n;
    double theta;
    double alpha; ///< 1 / (1 - theta).
    double zetan; ///< zeta(n, theta).
    double eta;   ///< Gray et al. eta term.
};

/**
 * Zipfian draws whose popularity ranking is scattered over the key
 * space by a seeded bijection of [0, n).
 */
class ScrambledZipfian
{
  public:
    ScrambledZipfian(std::uint64_t n, double theta, std::uint64_t salt);

    /** Draw one key in [0, n); consumes one value from @p rng. */
    std::uint64_t
    next(Rng &rng) const
    {
        return scramble(zipf.next(rng));
    }

    /** The key holding popularity rank @p rank (a bijection). */
    std::uint64_t scramble(std::uint64_t rank) const;

    /** Inverse of scramble(): the popularity rank of @p key. */
    std::uint64_t rankOf(std::uint64_t key) const;

    /** The key in [@p first, @p last] with the lowest rank. */
    std::uint64_t hottestIn(std::uint64_t first, std::uint64_t last) const;

    const ZipfianGenerator &ranks() const { return zipf; }

  private:
    ZipfianGenerator zipf;
    std::uint64_t n;
    std::uint64_t mask;     ///< 2^bits - 1, smallest power of two >= n.
    std::uint64_t mulOdd;   ///< Seeded odd multiplier (invertible).
    std::uint64_t mulInv;   ///< Modular inverse of mulOdd mod 2^bits.
    std::uint64_t xorConst; ///< Seeded xor constant.
    unsigned bits;          ///< Permutation width.
};

} // namespace getm

#endif // GETM_COMMON_ZIPF_HH
