/**
 * @file
 * Bounds-checked binary serialization primitives for simulator
 * snapshots.
 *
 * Fixed-width little-endian encoding, independent of host struct
 * layout, so snapshot bytes are stable across compilers and build
 * flags. Every read is range-checked; malformed input raises
 * SnapshotError rather than reading past the buffer, and section tags
 * catch writer/reader drift with a message naming the section instead
 * of a silent misparse.
 *
 * Components list their snapshot state once, in a
 * transferState(StateIO&) that both saves and loads: the field order
 * there is the format.
 */

#ifndef GPS_SNAPSHOT_SERIAL_HH
#define GPS_SNAPSHOT_SERIAL_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace gps::snapshot
{

/** Raised on any malformed, truncated, or mismatched snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** Append-only little-endian encoder. */
class Serializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string& s)
    {
        u64(s.size());
        buf_.append(s);
    }

    /** Start a named section; the reader must consume the same tag. */
    void section(const std::string& name) { str(name); }

    const std::string& bytes() const { return buf_; }

  private:
    std::string buf_;
};

/** Range-checked decoder over an immutable byte buffer. */
class Deserializer
{
  public:
    explicit Deserializer(const std::string& bytes)
        : buf_(&bytes)
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>((*buf_)[pos_++]);
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>((*buf_)[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>((*buf_)[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw SnapshotError("corrupt snapshot: bool byte " +
                                std::to_string(v));
        return v == 1;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint64_t len = u64();
        need(len);
        std::string s = buf_->substr(pos_, len);
        pos_ += len;
        return s;
    }

    /** Consume a section tag, failing loudly on drift. */
    void
    section(const std::string& expected)
    {
        const std::string got = str();
        if (got != expected)
            throw SnapshotError("corrupt snapshot: expected section '" +
                                expected + "', found '" + got + "'");
    }

    /**
     * Read an element count bounded by @p max and by the bytes left
     * (every element encodes to at least one byte), so a corrupt length
     * cannot size a container beyond what the snapshot could fill.
     */
    std::uint64_t
    count(std::uint64_t max)
    {
        const std::uint64_t n = u64();
        if (n > max)
            throw SnapshotError(
                "corrupt snapshot: element count " + std::to_string(n) +
                " exceeds limit " + std::to_string(max));
        if (n > buf_->size() - pos_)
            throw SnapshotError(
                "corrupt snapshot: element count " + std::to_string(n) +
                " exceeds the " + std::to_string(buf_->size() - pos_) +
                " bytes left");
        return n;
    }

    bool atEnd() const { return pos_ == buf_->size(); }
    std::size_t pos() const { return pos_; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > buf_->size() - pos_)
            throw SnapshotError(
                "truncated snapshot: need " + std::to_string(n) +
                " bytes at offset " + std::to_string(pos_) + ", have " +
                std::to_string(buf_->size() - pos_));
    }

    const std::string* buf_;
    std::size_t pos_ = 0;
};

/**
 * One direction of a snapshot transfer: saving into a Serializer or
 * loading from a Deserializer. A component's transferState(StateIO&)
 * names each field once; every call writes the field when saving and
 * overwrites it from the snapshot when loading.
 */
class StateIO
{
  public:
    explicit StateIO(Serializer& out) : out_(&out) {}
    explicit StateIO(Deserializer& in) : in_(&in) {}

    /** True when fields are overwritten from a snapshot. */
    bool loading() const { return in_ != nullptr; }

    void
    u8(std::uint8_t& v)
    {
        if (in_)
            v = in_->u8();
        else
            out_->u8(v);
    }

    void
    u32(std::uint32_t& v)
    {
        if (in_)
            v = in_->u32();
        else
            out_->u32(v);
    }

    void
    u64(std::uint64_t& v)
    {
        if (in_)
            v = in_->u64();
        else
            out_->u64(v);
    }

    void
    i64(std::int64_t& v)
    {
        if (in_)
            v = in_->i64();
        else
            out_->i64(v);
    }

    void
    b(bool& v)
    {
        if (in_)
            v = in_->b();
        else
            out_->b(v);
    }

    void
    f64(double& v)
    {
        if (in_)
            v = in_->f64();
        else
            out_->f64(v);
    }

    void
    str(std::string& s)
    {
        if (in_)
            s = in_->str();
        else
            out_->str(s);
    }

    /** Section tag; loading fails loudly unless it matches. */
    void
    section(const char* name)
    {
        if (in_)
            in_->section(name);
        else
            out_->section(name);
    }

    /**
     * A field held in another type than its wire type @p Wire: an
     * enum or char carried as u8, a GpuId as u32, an int as i64.
     */
    template <typename Wire, typename T>
    void
    as(T& v)
    {
        Wire w = static_cast<Wire>(v);
        if constexpr (std::is_same_v<Wire, std::uint8_t>)
            u8(w);
        else if constexpr (std::is_same_v<Wire, std::uint32_t>)
            u32(w);
        else if constexpr (std::is_same_v<Wire, std::uint64_t>)
            u64(w);
        else
            i64(w);
        v = static_cast<T>(w);
    }

    /**
     * A configuration value the snapshot must agree with: written when
     * saving; when loading, read and compared.
     * @throws SnapshotError carrying @p what on a mismatch
     */
    void
    expect(std::uint64_t value, const char* what)
    {
        std::uint64_t got = value;
        u64(got);
        if (got != value)
            throw SnapshotError(what);
    }

    /**
     * Container length: writes @p n when saving; when loading, returns
     * the stored length, bounded by @p max and the bytes left.
     */
    std::uint64_t
    count(std::uint64_t n, std::uint64_t max)
    {
        if (in_)
            return in_->count(max);
        out_->u64(n);
        return n;
    }

    /** A vector of u64 values with its length bounded by @p max. */
    void
    u64s(std::vector<std::uint64_t>& v, std::uint64_t max)
    {
        v.resize(count(v.size(), max));
        for (std::uint64_t& x : v)
            u64(x);
    }

    /**
     * An unordered set or map, saved in ascending key order so snapshot
     * bytes never depend on hash iteration order. @p entry transfers
     * one element: entry(key) for a set, entry(key, value) for a map.
     * Loading replaces the contents.
     */
    template <typename Container, typename Entry>
    void
    sortedKeys(Container& c, std::uint64_t max, Entry&& entry)
    {
        using Key = typename Container::key_type;
        constexpr bool isMap =
            requires { typename Container::mapped_type; };
        if (loading()) {
            c.clear();
            const std::uint64_t n = count(0, max);
            if constexpr (requires { c.reserve(n); })
                c.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                Key key{};
                if constexpr (isMap) {
                    typename Container::mapped_type value{};
                    entry(key, value);
                    c.insert_or_assign(key, std::move(value));
                } else {
                    entry(key);
                    c.insert(key);
                }
            }
            return;
        }
        std::vector<Key> keys;
        keys.reserve(c.size());
        for (const auto& e : c) {
            if constexpr (isMap)
                keys.push_back(e.first);
            else
                keys.push_back(e);
        }
        std::sort(keys.begin(), keys.end());
        count(keys.size(), max);
        for (Key& key : keys) {
            if constexpr (isMap)
                entry(key, c.at(key));
            else
                entry(key);
        }
    }

  private:
    Serializer* out_ = nullptr;
    Deserializer* in_ = nullptr;
};

} // namespace gps::snapshot

#endif // GPS_SNAPSHOT_SERIAL_HH
