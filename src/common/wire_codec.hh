/**
 * @file
 * The shared binary field codec behind every cmpqos wire format.
 *
 * `src/service/protocol` introduced the idiom: each message type lists
 * its fields once, in wire order, inside a `visitFields` template, and
 * the codec directions are visitors over that list. BinWriter and
 * BinReader are the binary pair — little-endian fixed-width integers,
 * bit-cast doubles, u16-length-prefixed strings — and live here so the
 * federation layer's shard protocol shares one battle-tested
 * implementation with the admission-service protocol instead of
 * growing a second one.
 *
 * BinReader never throws and never reads past its buffer: a short or
 * hostile input flips `ok` to false with a field-naming error, and
 * every later field read becomes a no-op. Length-prefixed fields
 * (strings, byte blobs, lists) are bounded by the bytes actually
 * remaining, so a forged length cannot trigger an oversized
 * allocation.
 *
 * SchemaWriter is the third visitor: it records each call's primitive
 * and name instead of bytes. recordWireSchema runs it over every
 * alternative of a message variant, which is how docs/SCHEMA.lock is
 * written — from the codec itself, not from a reading of its source.
 */

#ifndef CMPQOS_COMMON_WIRE_CODEC_HH
#define CMPQOS_COMMON_WIRE_CODEC_HH

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cxxabi.h>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.hh"

namespace cmpqos
{

/** Field-visitor that appends the binary encoding to `out`. */
struct BinWriter
{
    std::string out;

    void push16(std::uint16_t v)
    {
        out.push_back(static_cast<char>(v & 0xff));
        out.push_back(static_cast<char>((v >> 8) & 0xff));
    }
    void push32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
    void push64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void u8(const char *, std::uint8_t v)
    {
        out.push_back(static_cast<char>(v));
    }
    /** A bool travels as one byte, 0 or 1. */
    void boolean(const char *name, bool v) { u8(name, v ? 1 : 0); }
    void u32(const char *, std::uint32_t v) { push32(v); }
    void u64(const char *, std::uint64_t v) { push64(v); }
    void i32(const char *, std::int32_t v)
    {
        push32(static_cast<std::uint32_t>(v));
    }
    void f64(const char *, double v)
    {
        push64(std::bit_cast<std::uint64_t>(v));
    }
    void str(const char *name, const std::string &s)
    {
        cmpqos_assert(s.size() <= 0xffff,
                      "wire string '%s' too long (%zu bytes)", name,
                      s.size());
        push16(static_cast<std::uint16_t>(s.size()));
        out.append(s);
    }
    /** Opaque byte blob with a u32 length prefix. */
    void bytes(const char *name, const std::string &b)
    {
        cmpqos_assert(b.size() <= 0xffffffffu,
                      "wire blob '%s' too long (%zu bytes)", name,
                      b.size());
        push32(static_cast<std::uint32_t>(b.size()));
        out.append(b);
    }
    void u64vec(const char *name, const std::vector<std::uint64_t> &v)
    {
        cmpqos_assert(v.size() <= 0xffffffffu,
                      "wire vector '%s' too long", name);
        push32(static_cast<std::uint32_t>(v.size()));
        for (std::uint64_t x : v)
            push64(x);
    }
    /** Length-prefixed list of sub-messages (each visits its own
     *  fields through this writer). */
    template <typename T>
    void list(const char *name, std::vector<T> &items)
    {
        cmpqos_assert(items.size() <= 0xffffffffu,
                      "wire list '%s' too long", name);
        push32(static_cast<std::uint32_t>(items.size()));
        for (T &item : items)
            visitFields(item, *this);
    }
    /** Nested struct written in place, with no prefix of its own. */
    template <typename T> void embed(const char *, T &m)
    {
        visitFields(m, *this);
    }
};

/** Field-visitor that decodes the binary encoding from `in`. */
struct BinReader
{
    std::string_view in;
    std::size_t pos = 0;
    bool ok = true;
    std::string err;

    bool need(std::size_t n, const char *name)
    {
        if (!ok)
            return false;
        if (in.size() - pos < n) {
            ok = false;
            err = std::string("truncated field '") + name + "'";
            return false;
        }
        return true;
    }
    std::uint64_t take(std::size_t n)
    {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(in[pos + i]))
                 << (8 * i);
        pos += n;
        return v;
    }

    void u8(const char *name, std::uint8_t &v)
    {
        if (need(1, name))
            v = static_cast<std::uint8_t>(take(1));
    }
    void boolean(const char *name, bool &v)
    {
        std::uint8_t b = v; // a failed read leaves v as it was
        u8(name, b);
        if (b > 1) {
            ok = false;
            err = std::string("bool field '") + name + "' is not 0 or 1";
        }
        v = b == 1;
    }
    void u32(const char *name, std::uint32_t &v)
    {
        if (need(4, name))
            v = static_cast<std::uint32_t>(take(4));
    }
    void u64(const char *name, std::uint64_t &v)
    {
        if (need(8, name))
            v = take(8);
    }
    void i32(const char *name, std::int32_t &v)
    {
        if (need(4, name))
            v = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(take(4)));
    }
    void f64(const char *name, double &v)
    {
        if (need(8, name))
            v = std::bit_cast<double>(take(8));
    }
    void str(const char *name, std::string &v)
    {
        if (!need(2, name))
            return;
        const auto len = static_cast<std::size_t>(take(2));
        if (!need(len, name))
            return;
        v.assign(in.substr(pos, len));
        pos += len;
    }
    void bytes(const char *name, std::string &v)
    {
        if (!need(4, name))
            return;
        const auto len = static_cast<std::size_t>(take(4));
        if (!need(len, name))
            return;
        v.assign(in.substr(pos, len));
        pos += len;
    }
    void u64vec(const char *name, std::vector<std::uint64_t> &v)
    {
        v.clear();
        if (!need(4, name))
            return;
        const auto count = static_cast<std::size_t>(take(4));
        // Each element is 8 bytes: a forged count larger than the
        // remaining payload fails fast instead of allocating.
        if (!need(count * 8, name))
            return;
        v.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            v.push_back(take(8));
    }
    template <typename T>
    void list(const char *name, std::vector<T> &items)
    {
        items.clear();
        if (!need(4, name))
            return;
        const auto count = static_cast<std::size_t>(take(4));
        // Every sub-message encodes at least one byte, so a count
        // beyond the remaining bytes can never decode; reject it
        // before reserving anything.
        if (count > in.size() - pos) {
            ok = false;
            err = std::string("oversized list '") + name + "'";
            return;
        }
        items.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            items.emplace_back();
            visitFields(items.back(), *this);
            if (!ok)
                return;
        }
    }
    template <typename T> void embed(const char *, T &m)
    {
        visitFields(m, *this);
    }
};

/** Append the u32 little-endian payload length that prefixes every
 *  stream frame (qosd connections and federation shard links). */
inline void
appendFrameLength(std::string &frame, std::uint32_t len)
{
    BinWriter w;
    w.push32(len);
    frame += w.out;
}

/** Read the length prefix at the front of @p buffer; false while
 *  fewer than its 4 bytes have arrived. Bounds are the caller's. */
inline bool
peekFrameLength(std::string_view buffer, std::uint32_t &len)
{
    if (buffer.size() < 4)
        return false;
    BinReader r{buffer, 0, true, {}};
    len = static_cast<std::uint32_t>(r.take(4));
    return true;
}

/**
 * Set @p out to a default-constructed alternative @p index of its
 * variant: the decoders' type-id-to-message step. False, with @p out
 * untouched, when the variant has no such alternative.
 */
template <typename Variant>
bool
makeAlternative(std::size_t index, Variant &out)
{
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
        return ((index == I && (out.template emplace<I>(), true)) ||
                ...);
    }(std::make_index_sequence<std::variant_size_v<Variant>>{});
}

// --- the codec describing itself -----------------------------------

/** One field as the codec writes it: its primitive (or "embed") and
 *  wire name; `type` names the struct an embed or list holds. */
struct WireField
{
    std::string kind;
    std::string name;
    std::string type;
};

struct WireStruct
{
    std::string name;
    std::vector<WireField> fields;
};

/** One protocol's section of docs/SCHEMA.lock. The variant alias and
 *  version constant are named for the reader of the lock. */
struct WireSchema
{
    std::string protocol;
    std::string variant;
    std::string versionConst;
    std::uint32_t version = 0;
    /** One per variant alternative, in type-id order. */
    std::vector<WireStruct> messages;
    /** Structs met through embed or list, by name. */
    std::map<std::string, std::vector<WireField>> nested;
};

/**
 * Unqualified name of @p T as the compiler spells it ("FedProbe").
 * Messages are named after their types, not after a table kept beside
 * the variant, so swapping two alternatives changes the lock even
 * when their fields are the same.
 */
template <typename T>
std::string
wireTypeName()
{
    int status = 0;
    const std::unique_ptr<char, void (*)(void *)> demangled(
        abi::__cxa_demangle(typeid(T).name(), nullptr, nullptr, &status),
        std::free);
    const std::string name = demangled ? demangled.get() : typeid(T).name();
    const std::size_t colon = name.rfind("::");
    return colon == std::string::npos ? name : name.substr(colon + 2);
}

/** Field-visitor that records (primitive, name) per call, in wire
 *  order; nested structs are recorded once into `nested`. A bool is
 *  recorded as the u8 it travels as. */
struct SchemaWriter
{
    /** Every primitive above, in the lock's `codec` line order. */
    static constexpr const char *primitives[] = {
        "u8", "u32", "u64", "i32", "f64", "str", "bytes", "u64vec",
        "list"};

    std::map<std::string, std::vector<WireField>> &nested;
    std::vector<WireField> fields;

    void add(const char *kind, const char *name, std::string type = {})
    {
        fields.push_back({kind, name, std::move(type)});
    }
    void u8(const char *name, std::uint8_t) { add("u8", name); }
    void boolean(const char *name, bool) { add("u8", name); }
    void u32(const char *name, std::uint32_t) { add("u32", name); }
    void u64(const char *name, std::uint64_t) { add("u64", name); }
    void i32(const char *name, std::int32_t) { add("i32", name); }
    void f64(const char *name, double) { add("f64", name); }
    void str(const char *name, const std::string &) { add("str", name); }
    void bytes(const char *name, const std::string &) { add("bytes", name); }
    void u64vec(const char *name, const std::vector<std::uint64_t> &)
    {
        add("u64vec", name);
    }
    template <typename T> void list(const char *name, std::vector<T> &)
    {
        add("list", name, record<T>());
    }
    template <typename T> void embed(const char *name, T &)
    {
        add("embed", name, record<T>());
    }

    /** Record a default @p T's fields (once) and return its name. */
    template <typename T> std::string record()
    {
        std::string name = wireTypeName<T>();
        if (!nested.contains(name)) {
            SchemaWriter sub{nested, {}};
            T item{};
            visitFields(item, sub);
            nested[name] = std::move(sub.fields);
        }
        return name;
    }
};

/**
 * Record @p Variant's schema: SchemaWriter over every alternative, in
 * type-id order. Instantiate it where the alternatives' visitFields
 * templates are visible.
 */
template <typename Variant>
WireSchema
recordWireSchema(std::string protocol, std::string variant,
                 std::string version_const, std::uint32_t version)
{
    WireSchema s{std::move(protocol), std::move(variant),
                 std::move(version_const), version, {}, {}};
    for (std::size_t i = 0; i < std::variant_size_v<Variant>; ++i) {
        Variant m;
        makeAlternative(i, m);
        std::visit(
            [&](auto &alt) {
                SchemaWriter w{s.nested, {}};
                visitFields(alt, w);
                s.messages.push_back(
                    {wireTypeName<std::remove_cvref_t<decltype(alt)>>(),
                     std::move(w.fields)});
            },
            m);
    }
    return s;
}

} // namespace cmpqos

#endif // CMPQOS_COMMON_WIRE_CODEC_HH
