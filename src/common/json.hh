/**
 * @file
 * The tree's one JSON reader, the string escaper its writers share,
 * and the strict value reader behind JSON numbers, config keys and
 * tool flags alike.
 *
 * Everything the project reads back as JSON is one flat object per
 * line: qosd's JSONL framing (service/protocol) and the telemetry
 * capture (telemetry/sink). JsonObject parses exactly that shape --
 * string, number, boolean and null values; a nested object or array
 * is an error. The parser is bounds-checked throughout and never
 * throws, so hostile input fails with a message, not a crash.
 *
 * Numbers keep the token as written and the typed getters convert it
 * on demand through readNumber, so a JSON field, a config key and a
 * flag obey one rule: an integer is a whole base-10 token within its
 * type's range, and a double is finite.
 */

#ifndef CMPQOS_COMMON_JSON_HH
#define CMPQOS_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cmpqos
{

/** Escape a string for inclusion in a JSON string literal. */
std::string escapeJson(std::string_view s);

/**
 * Read all of @p text as one number. An integer is one whole base-10
 * token (digits, with a leading '-' only for a signed type; no '+',
 * space, fraction or exponent) whose value fits T. On failure @p out
 * is untouched.
 */
template <std::integral T>
    requires(!std::same_as<T, bool>)
bool
readNumber(std::string_view text, T &out)
{
    // from_chars stops at a '.' or an exponent, refuses a '-' for an
    // unsigned T, and reports a value outside T's range.
    const char *end = text.data() + text.size();
    T x{};
    const auto [stop, ec] = std::from_chars(text.data(), end, x);
    if (ec != std::errc() || stop != end)
        return false;
    out = x;
    return true;
}

/** A double is one whole strtod token whose value is finite; an
 *  underflow reads as the nearest representable value. */
bool readNumber(std::string_view text, double &out);

/**
 * Read @p text as a T by the rules every config key and tool flag
 * shares: a bool is 1, true or on, or 0, false or off; a number goes
 * through readNumber and must also lie in [@p lo, @p hi] (compared as
 * doubles, which is exact for bounds below 2^53). On failure @p out
 * is untouched.
 */
template <class T>
bool
readValue(std::string_view text, T &out,
          double lo = -std::numeric_limits<double>::infinity(),
          double hi = std::numeric_limits<double>::infinity())
{
    if constexpr (std::same_as<T, bool>) {
        const bool on = text == "1" || text == "true" || text == "on";
        if (!on && text != "0" && text != "false" && text != "off")
            return false;
        out = on;
        return true;
    } else {
        T x{};
        if (!readNumber(text, x) || static_cast<double>(x) < lo ||
            static_cast<double>(x) > hi)
            return false;
        out = x;
        return true;
    }
}

/** @p v as readValue reads it back: 1 or 0, or decimal. */
template <std::integral T>
std::string
formatValue(T v)
{
    if constexpr (std::same_as<T, bool>)
        return v ? "1" : "0";
    else
        return std::to_string(v);
}

/** @p v in 17 significant digits, which readValue reads back as the
 *  same double. */
std::string formatValue(double v);

/** Outcome of one typed field lookup. */
enum class JsonField
{
    /** The key is not in the object; the destination is untouched. */
    Absent,
    /** The value converted; the destination holds it. */
    Ok,
    /** Wrong kind of value, or out of the destination's range; the
     *  destination is untouched. */
    Bad,
};

/**
 * One parsed flat JSON object.
 */
class JsonObject
{
  public:
    /**
     * Parse @p text as exactly one flat object, optionally surrounded
     * by whitespace. On failure returns false and error() says why.
     */
    bool parse(std::string_view text);

    /** Why the last parse() failed. */
    const std::string &error() const { return err_; }

    /** Read a number field by readNumber's rules for T. */
    template <class T>
        requires(std::integral<T> && !std::same_as<T, bool>) ||
                std::same_as<T, double>
    JsonField get(std::string_view key, T &out) const
    {
        const Value *v = find(key);
        if (v == nullptr)
            return JsonField::Absent;
        if (v->kind != Value::Kind::Num || !readNumber(v->text, out))
            return JsonField::Bad;
        return JsonField::Ok;
    }

    /** Read a string field (unescaped). */
    JsonField get(std::string_view key, std::string &out) const;

  private:
    struct Value
    {
        enum class Kind
        {
            Str,
            Num,
            Bool,
            Null
        };
        Kind kind = Kind::Null;
        /** Str: the unescaped text; Num: the token as written. */
        std::string text;
    };

    /** The value under @p key (the last one if repeated). */
    const Value *find(std::string_view key) const;

    struct Parser;

    std::vector<std::pair<std::string, Value>> fields_;
    std::string err_;
};

} // namespace cmpqos

#endif // CMPQOS_COMMON_JSON_HH
