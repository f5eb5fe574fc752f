#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cmpqos
{

namespace
{

/** JSON's two-character escapes as (letter, byte) pairs: the one
 *  table escapeJson writes and the parser reads. */
constexpr char shortEscapes[][2] = {
    {'"', '"'}, {'\\', '\\'}, {'b', '\b'}, {'f', '\f'},
    {'n', '\n'}, {'r', '\r'}, {'t', '\t'},
};

/** The short escape whose column @p col holds @p c; nullptr if none. */
const char *
findEscape(int col, char c)
{
    for (const auto &e : shortEscapes)
        if (e[col] == c)
            return e;
    return nullptr;
}

} // namespace

std::string
escapeJson(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        if (const char *e = findEscape(1, ch)) {
            out += '\\';
            out += e[0];
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(ch));
            out += buf;
        } else {
            out += ch;
        }
    }
    return out;
}

struct JsonObject::Parser
{
    std::string_view in;
    std::size_t pos = 0;
    std::string err;

    bool fail(const char *what)
    {
        if (err.empty())
            err = what;
        return false;
    }
    bool at(char c) const { return pos < in.size() && in[pos] == c; }
    bool atDigit() const
    {
        return pos < in.size() && in[pos] >= '0' && in[pos] <= '9';
    }
    void skipWs()
    {
        while (at(' ') || at('\t') || at('\r') || at('\n'))
            ++pos;
    }
    bool literal(std::string_view lit)
    {
        if (in.substr(pos, lit.size()) != lit)
            return fail("bad literal");
        pos += lit.size();
        return true;
    }
    bool digits()
    {
        if (!atDigit())
            return false;
        while (atDigit())
            ++pos;
        return true;
    }

    bool parseString(std::string &out)
    {
        if (!at('"'))
            return fail("expected string");
        ++pos;
        out.clear();
        while (pos < in.size()) {
            const char c = in[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (c == '\\') {
                if (pos + 1 >= in.size())
                    return fail("dangling escape");
                const char letter = in[pos + 1];
                pos += 2;
                if (const char *e = findEscape(0, letter))
                    out.push_back(e[1]);
                else if (letter == '/')
                    out.push_back('/'); // legal, but never written
                else if (letter != 'u')
                    return fail("unknown escape");
                else if (!parseUnicodeEscape(out))
                    return false;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            out.push_back(c);
            ++pos;
        }
        return fail("unterminated string");
    }

    /** The four hex digits after "\u", appended as UTF-8. Surrogate
     *  halves are encoded as they come, not recombined: every string
     *  the tree reads back is ASCII or raw UTF-8. */
    bool parseUnicodeEscape(std::string &out)
    {
        if (pos + 4 > in.size())
            return fail("truncated \\u escape");
        unsigned cp = 0;
        const char *hex = in.data() + pos;
        if (std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4)
            return fail("bad \\u escape");
        pos += 4;
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
        return true;
    }

    /** One number token, by the JSON grammar:
     *  -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool parseNumber(std::string &token)
    {
        const std::size_t start = pos;
        if (at('-'))
            ++pos;
        if (at('0'))
            ++pos;
        else if (!digits())
            return fail("malformed number");
        if (at('.')) {
            ++pos;
            if (!digits())
                return fail("malformed number");
        }
        if (at('e') || at('E')) {
            ++pos;
            if (at('+') || at('-'))
                ++pos;
            if (!digits())
                return fail("malformed number");
        }
        token.assign(in.substr(start, pos - start));
        return true;
    }

    bool parseValue(Value &v)
    {
        skipWs();
        if (pos >= in.size())
            return fail("unexpected end of input");
        switch (in[pos]) {
          case '"':
            v.kind = Value::Kind::Str;
            return parseString(v.text);
          case 't':
            v.kind = Value::Kind::Bool;
            return literal("true");
          case 'f':
            v.kind = Value::Kind::Bool;
            return literal("false");
          case 'n':
            v.kind = Value::Kind::Null;
            return literal("null");
          case '{':
          case '[':
            return fail("nested values are not supported");
          default:
            v.kind = Value::Kind::Num;
            return parseNumber(v.text);
        }
    }

    bool parseObject(std::vector<std::pair<std::string, Value>> &out)
    {
        skipWs();
        if (!at('{'))
            return fail("expected '{'");
        ++pos;
        skipWs();
        if (at('}')) {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (!at(':'))
                return fail("expected ':'");
            ++pos;
            Value v;
            if (!parseValue(v))
                return false;
            out.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (at(',')) {
                ++pos;
                continue;
            }
            if (at('}')) {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }
};

bool
JsonObject::parse(std::string_view text)
{
    fields_.clear();
    Parser p{text, 0, {}};
    bool ok = p.parseObject(fields_);
    if (ok) {
        p.skipWs();
        if (p.pos != text.size())
            ok = p.fail("trailing bytes after JSON object");
    }
    err_ = std::move(p.err);
    return ok;
}

const JsonObject::Value *
JsonObject::find(std::string_view key) const
{
    for (auto it = fields_.rbegin(); it != fields_.rend(); ++it)
        if (it->first == key)
            return &it->second;
    return nullptr;
}

JsonField
JsonObject::get(std::string_view key, double &out) const
{
    const Value *v = find(key);
    if (v == nullptr)
        return JsonField::Absent;
    if (v->kind != Value::Kind::Num)
        return JsonField::Bad;
    const double x = std::strtod(v->text.c_str(), nullptr);
    if (!std::isfinite(x))
        return JsonField::Bad;
    out = x;
    return JsonField::Ok;
}

JsonField
JsonObject::get(std::string_view key, std::string &out) const
{
    const Value *v = find(key);
    if (v == nullptr)
        return JsonField::Absent;
    if (v->kind != Value::Kind::Str)
        return JsonField::Bad;
    out = v->text;
    return JsonField::Ok;
}

} // namespace cmpqos
