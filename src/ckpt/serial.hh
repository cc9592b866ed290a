/**
 * @file
 * Binary state serialization for checkpoint/restore.
 *
 * One archive pair (Writer/Reader) and one convention: a class exposes
 *
 *     template <class Ar> void ckpt(Ar &ar) { ar(memberA, memberB); }
 *
 * and the same method both saves and loads, so the field list can
 * never skew between the two directions. The archives handle scalars,
 * enums, strings, and the standard containers; user types are reached
 * through their ckpt() method.
 *
 * The format is raw host-endian bytes: checkpoints are a crash-safety
 * mechanism for resuming on the *same* build and host (the config-hash
 * guard in ckpt/checkpoint.hh rejects everything else), not an
 * interchange format.
 *
 * Unordered containers and byte determinism
 * -----------------------------------------
 * The simulator's byte-determinism contract makes the *iteration
 * order* of several std::unordered_map instances observable (the
 * cleanup walk over the grant tables GetmCoreTm keeps per warp slot,
 * ...). A restored container must therefore
 * reproduce the original's internal layout exactly, not just its
 * contents. libstdc++'s hashtable keeps
 * every node on one forward list with each bucket's nodes contiguous,
 * prepends within a bucket, and moves a freshly-touched bucket to the
 * list head — so writing (bucket_count, entries in iteration order)
 * and re-inserting in *reverse* order into a table rehashed to the
 * same bucket count rebuilds both the global list order and every
 * bucket chain. Growth thresholds then evolve identically, so the
 * restored run and the uninterrupted run stay byte-identical forever
 * after. tests/test_ckpt.cc pins this reconstruction against the
 * toolchain.
 */

#ifndef GETM_CKPT_SERIAL_HH
#define GETM_CKPT_SERIAL_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sim_error.hh"

namespace getm::ckpt {

class Writer;
class Reader;

/** Serialize-everything entry point; overloaded per type family. */
template <class Ar, class T> void io(Ar &ar, T &value);

/** Appends raw state bytes to a buffer. */
class Writer
{
  public:
    static constexpr bool saving = true;

    void
    raw(const void *data, std::size_t size)
    {
        buffer.append(static_cast<const char *>(data), size);
    }

    template <class... Ts>
    void
    operator()(Ts &...values)
    {
        (io(*this, values), ...);
    }

    std::string take() { return std::move(buffer); }
    std::size_t size() const { return buffer.size(); }

    /** The bytes written since construction or the last clear(). */
    std::string_view bytes() const { return buffer; }

    /** Start a new archive, keeping the buffer's capacity so a
     *  writer reused across snapshots allocates only when one grows. */
    void clear() { buffer.clear(); }

  private:
    std::string buffer;
};

/** Consumes state bytes; throws typed SimError when they run out. */
class Reader
{
  public:
    static constexpr bool saving = false;

    Reader(const char *data, std::size_t size)
        : cursor(data), end(data + size)
    {
    }

    void
    raw(void *data, std::size_t size)
    {
        // An empty container's data() may be null, and memcpy requires
        // valid pointers even for zero bytes.
        if (size == 0)
            return;
        if (static_cast<std::size_t>(end - cursor) < size)
            throw SimError(SimErrorKind::Checkpoint,
                           "checkpoint payload truncated (needed " +
                               std::to_string(size) + " more bytes)");
        std::memcpy(data, cursor, size);
        cursor += size;
    }

    template <class... Ts>
    void
    operator()(Ts &...values)
    {
        (io(*this, values), ...);
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - cursor);
    }

  private:
    const char *cursor;
    const char *end;
};

namespace detail {

template <class T, class Ar>
concept HasCkptMethod = requires(T &t, Ar &ar) { t.ckpt(ar); };

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

inline std::uint64_t
readCount(Reader &ar, std::uint64_t limit = ~std::uint64_t{0})
{
    std::uint64_t n = 0;
    ar.raw(&n, sizeof(n));
    // A corrupt length must fail as a typed error, not a bad_alloc.
    if (n > limit || n > ar.remaining())
        throw SimError(SimErrorKind::Checkpoint,
                       "checkpoint payload corrupt (implausible "
                       "container size " + std::to_string(n) + ")");
    return n;
}

} // namespace detail

template <class Ar, class T>
void
io(Ar &ar, T &value)
{
    if constexpr (detail::Scalar<T>) {
        if constexpr (Ar::saving)
            ar.raw(&value, sizeof(value));
        else
            ar.raw(&value, sizeof(value));
    } else if constexpr (detail::HasCkptMethod<T, Ar>) {
        value.ckpt(ar);
    } else {
        static_assert(detail::HasCkptMethod<T, Ar>,
                      "type has no ckpt() method and no io() overload");
    }
}

template <class Ar>
void
io(Ar &ar, std::string &value)
{
    if constexpr (Ar::saving) {
        std::uint64_t n = value.size();
        ar.raw(&n, sizeof(n));
        ar.raw(value.data(), value.size());
    } else {
        const std::uint64_t n = detail::readCount(ar);
        value.resize(static_cast<std::size_t>(n));
        ar.raw(value.data(), value.size());
    }
}

template <class Ar, class T, class Alloc>
void
io(Ar &ar, std::vector<T, Alloc> &value)
{
    if constexpr (Ar::saving) {
        std::uint64_t n = value.size();
        ar.raw(&n, sizeof(n));
    } else {
        value.clear();
        value.resize(static_cast<std::size_t>(detail::readCount(ar)));
    }
    if constexpr (detail::Scalar<T>) {
        ar.raw(value.data(), sizeof(T) * value.size());
    } else {
        for (T &element : value)
            io(ar, element);
    }
}

/** std::vector<bool> has no real references; go element by element. */
template <class Ar, class Alloc>
void
io(Ar &ar, std::vector<bool, Alloc> &value)
{
    if constexpr (Ar::saving) {
        std::uint64_t n = value.size();
        ar.raw(&n, sizeof(n));
        for (bool bit : value) {
            char byte = bit ? 1 : 0;
            ar.raw(&byte, 1);
        }
    } else {
        const std::uint64_t n = detail::readCount(ar);
        value.assign(static_cast<std::size_t>(n), false);
        for (std::uint64_t i = 0; i < n; ++i) {
            char byte = 0;
            ar.raw(&byte, 1);
            value[i] = byte != 0;
        }
    }
}

template <class Ar, class T, std::size_t N>
void
io(Ar &ar, std::array<T, N> &value)
{
    if constexpr (detail::Scalar<T>) {
        ar.raw(value.data(), sizeof(T) * N);
    } else {
        for (T &element : value)
            io(ar, element);
    }
}

template <class Ar, class A, class B>
void
io(Ar &ar, std::pair<A, B> &value)
{
    io(ar, value.first);
    io(ar, value.second);
}

template <class Ar, class T, class Alloc>
void
io(Ar &ar, std::deque<T, Alloc> &value)
{
    if constexpr (Ar::saving) {
        std::uint64_t n = value.size();
        ar.raw(&n, sizeof(n));
        for (T &element : value)
            io(ar, element);
    } else {
        value.clear();
        const std::uint64_t n = detail::readCount(ar);
        for (std::uint64_t i = 0; i < n; ++i) {
            io(ar, value.emplace_back());
        }
    }
}

template <class Ar, class K, class V, class Cmp, class Alloc>
void
io(Ar &ar, std::map<K, V, Cmp, Alloc> &value)
{
    if constexpr (Ar::saving) {
        std::uint64_t n = value.size();
        ar.raw(&n, sizeof(n));
        for (auto &[key, mapped] : value) {
            K k = key;
            io(ar, k);
            io(ar, mapped);
        }
    } else {
        value.clear();
        const std::uint64_t n = detail::readCount(ar);
        for (std::uint64_t i = 0; i < n; ++i) {
            K key{};
            io(ar, key);
            io(ar, value[key]);
        }
    }
}

namespace detail {

/**
 * Rebuild an unordered container's exact layout: rehash to the saved
 * bucket count, then insert in reverse saved-iteration order (see the
 * file comment for why this reproduces libstdc++'s node list).
 */
template <class Container, class Entry>
void
loadUnordered(Container &container, std::vector<Entry> &&entries,
              std::uint64_t bucket_count)
{
    container.clear();
    if (bucket_count != container.bucket_count())
        container.rehash(static_cast<std::size_t>(bucket_count));
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        container.insert(std::move(*it));
}

} // namespace detail

template <class Ar, class K, class V, class H, class E, class Alloc>
void
io(Ar &ar, std::unordered_map<K, V, H, E, Alloc> &value)
{
    if constexpr (Ar::saving) {
        std::uint64_t buckets = value.bucket_count();
        std::uint64_t n = value.size();
        ar.raw(&buckets, sizeof(buckets));
        ar.raw(&n, sizeof(n));
        for (auto &[key, mapped] : value) {
            K k = key;
            io(ar, k);
            io(ar, mapped);
        }
    } else {
        std::uint64_t buckets = 0;
        ar.raw(&buckets, sizeof(buckets));
        const std::uint64_t n = detail::readCount(ar);
        std::vector<std::pair<K, V>> entries;
        entries.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
            std::pair<K, V> entry;
            io(ar, entry.first);
            io(ar, entry.second);
            entries.push_back(std::move(entry));
        }
        detail::loadUnordered(value, std::move(entries), buckets);
    }
}

/**
 * Priority queues serialize in pop order and reload by re-push: every
 * queue in the simulator totally orders its entries (unique sequence
 * tiebreaks), so the internal heap layout is unobservable.
 */
template <class Ar, class T, class Container, class Cmp>
void
io(Ar &ar, std::priority_queue<T, Container, Cmp> &value)
{
    if constexpr (Ar::saving) {
        std::priority_queue<T, Container, Cmp> copy = value;
        std::uint64_t n = copy.size();
        ar.raw(&n, sizeof(n));
        while (!copy.empty()) {
            T element = copy.top();
            copy.pop();
            io(ar, element);
        }
    } else {
        value = std::priority_queue<T, Container, Cmp>{};
        const std::uint64_t n = detail::readCount(ar);
        for (std::uint64_t i = 0; i < n; ++i) {
            T element{};
            io(ar, element);
            value.push(std::move(element));
        }
    }
}

} // namespace getm::ckpt

#endif // GETM_CKPT_SERIAL_HH
