/**
 * @file
 * The tree's one JSON reader, and the string escaper its writers
 * share.
 *
 * Everything the project reads back as JSON is one flat object per
 * line: qosd's JSONL framing (service/protocol) and the telemetry
 * capture (telemetry/sink). JsonObject parses exactly that shape --
 * string, number, boolean and null values; a nested object or array
 * is an error. The parser is bounds-checked throughout and never
 * throws, so hostile input fails with a message, not a crash.
 *
 * Numbers keep the token as written and the typed getters convert it
 * on demand, checking the destination's range: an integer field takes
 * only an integer token (no fraction, no exponent) whose value fits
 * the field's type, and a floating field takes any number whose value
 * is finite.
 */

#ifndef CMPQOS_COMMON_JSON_HH
#define CMPQOS_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cmpqos
{

/** Escape a string for inclusion in a JSON string literal. */
std::string escapeJson(std::string_view s);

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

    /** Read an integer field (see the file comment for the rules). */
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonField get(std::string_view key, T &out) const
    {
        const Value *v = find(key);
        if (v == nullptr)
            return JsonField::Absent;
        // from_chars stops at a '.' or an exponent, refuses a '-' for
        // an unsigned T, and reports a value outside T's range.
        const char *end = v->text.data() + v->text.size();
        T x{};
        const auto [stop, ec] = std::from_chars(v->text.data(), end, x);
        if (v->kind != Value::Kind::Num || ec != std::errc() || stop != end)
            return JsonField::Bad;
        out = x;
        return JsonField::Ok;
    }

    /** Read a number field whose value is finite. */
    JsonField get(std::string_view key, double &out) const;

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
