/**
 * @file
 * Shared machinery for qoslint's analyzers. Links nothing from src/ —
 * the analyzers police that code, so they must never depend on it.
 *
 * The centrepiece is a C++-aware line stripper that removes comments
 * and (optionally) string literals while carrying state across lines:
 *
 *  - // line comments, including backslash-continued ones (a comment
 *    whose physical line ends in a line splice swallows the next
 *    line too — the construct that hid code from the PR 4 stripper);
 *  - block comments spanning lines;
 *  - plain string/char literals with escape sequences;
 *  - raw string literals R"delim(...)delim" (any prefix: u8R", LR",
 *    uR", UR"), spanning lines, with embedded quotes that used to
 *    desynchronise a quote-pairing stripper.
 *
 * Stripped spans are replaced with spaces so column positions (and
 * brace structure) stay stable for downstream matching.
 *
 * Also here: the lintable-extension filter, deterministic recursive
 * file collection (sorted path order), and the
 * `<tool>:allow(<rule>): <reason>` / `<tool>:expect(<rule>)` pragma
 * parser behind the analyzers' auditable escape hatch.
 */

#ifndef CMPQOS_TOOLS_LINT_UTIL_HH
#define CMPQOS_TOOLS_LINT_UTIL_HH

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace lintutil
{

namespace fs = std::filesystem;

/** Lexer state carried across physical lines. */
struct StripState
{
    bool inBlockComment = false;
    /** Previous line was a // comment ending in a line splice. */
    bool inLineContinuation = false;
    bool inRawString = false;
    /** Raw-string terminator we are looking for: `)delim"`. */
    std::string rawTerminator;
};

/**
 * Strip comments — and string/char literals unless @p keep_strings —
 * from one physical line, updating @p st for the next line.
 */
inline std::string
stripLine(const std::string &line, StripState &st,
          bool keep_strings = false)
{
    std::string out;
    out.reserve(line.size());

    // A // comment continued by a line splice consumes this whole
    // line (and the next, if this one also ends with a backslash).
    if (st.inLineContinuation) {
        st.inLineContinuation =
            !line.empty() && line.back() == '\\';
        return std::string(line.size(), ' ');
    }

    for (std::size_t i = 0; i < line.size();) {
        if (st.inRawString) {
            const std::size_t end = line.find(st.rawTerminator, i);
            if (end == std::string::npos) {
                out.append(line.size() - i, ' ');
                i = line.size();
            } else {
                const std::size_t stop =
                    end + st.rawTerminator.size();
                if (keep_strings)
                    out.append(line, i, stop - i);
                else
                    out.append(stop - i, ' ');
                i = stop;
                st.inRawString = false;
                st.rawTerminator.clear();
            }
            continue;
        }
        if (st.inBlockComment) {
            if (line.compare(i, 2, "*/") == 0) {
                st.inBlockComment = false;
                out += "  ";
                i += 2;
            } else {
                out += ' ';
                ++i;
            }
            continue;
        }
        if (line.compare(i, 2, "//") == 0) {
            // Comment to end of line; a trailing backslash splices
            // the next physical line into this comment.
            st.inLineContinuation = line.back() == '\\';
            break;
        }
        if (line.compare(i, 2, "/*") == 0) {
            st.inBlockComment = true;
            out += "  ";
            i += 2;
            continue;
        }
        // Raw string literal: optional encoding prefix, then R"d( —
        // only when the R is not part of a longer identifier.
        if (line[i] == 'R' && i + 1 < line.size() &&
            line[i + 1] == '"') {
            std::size_t start = i;
            // Allow u8R" / uR" / UR" / LR" prefixes.
            if (i >= 1 && (line[i - 1] == 'u' || line[i - 1] == 'U' ||
                           line[i - 1] == 'L'))
                start = i - 1;
            if (start >= 2 && line.compare(start - 2, 2, "u8") == 0)
                start = i - 2;
            const bool boundary =
                start == 0 ||
                !(std::isalnum(static_cast<unsigned char>(
                      line[start - 1])) ||
                  line[start - 1] == '_');
            if (boundary) {
                const std::size_t open = line.find('(', i + 2);
                if (open != std::string::npos) {
                    st.rawTerminator =
                        ")" + line.substr(i + 2, open - (i + 2)) +
                        "\"";
                    st.inRawString = true;
                    if (keep_strings)
                        out.append(line, i, open + 1 - i);
                    else
                        out.append(open + 1 - i, ' ');
                    i = open + 1;
                    continue;
                }
            }
        }
        if (line[i] == '"' || line[i] == '\'') {
            const char quote = line[i];
            const std::size_t start = i;
            ++i;
            while (i < line.size()) {
                if (line[i] == '\\' && i + 1 < line.size()) {
                    i += 2;
                    continue;
                }
                const bool closing = line[i] == quote;
                ++i;
                if (closing)
                    break;
            }
            if (keep_strings)
                out.append(line, start, i - start);
            else
                out.append(i - start, ' ');
            continue;
        }
        out += line[i];
        ++i;
    }
    return out;
}

/** True for the C++ source extensions the linters scan. */
inline bool
lintableFile(const fs::path &p)
{
    static const std::set<std::string> exts = {
        ".cc", ".hh", ".h", ".cpp", ".hpp", ".cxx", ".hxx"};
    return exts.count(p.extension().string()) != 0;
}

/**
 * Expand files/directories into a sorted, deduplicated file list
 * (sorted path order keeps linter output deterministic). Missing
 * paths are reported and flip @p ok false.
 */
inline std::vector<fs::path>
collectFiles(const std::vector<std::string> &args, bool &ok,
             const char *tool)
{
    std::vector<fs::path> files;
    for (const std::string &a : args) {
        fs::path p(a);
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(p)) {
                if (entry.is_regular_file() &&
                    lintableFile(entry.path()))
                    files.push_back(entry.path());
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            std::fprintf(stderr, "%s: no such path: %s\n", tool,
                         a.c_str());
            ok = false;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

/** Read a whole file; false on failure. */
inline bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

/** Parsed `<tool>:allow(...)` / `<tool>:expect(...)` pragmas. */
struct Directives
{
    std::set<std::string> allow;
    std::set<std::string> expect;
    std::vector<std::string> errors;
};

/** Rule ids are [a-z-]+; anything else inside <tool>:...(...) is
 *  documentation quoting the syntax, not a directive. */
inline bool
plausibleRuleId(const std::string &id)
{
    if (id.empty())
        return false;
    for (char c : id)
        if (!((c >= 'a' && c <= 'z') || c == '-'))
            return false;
    return true;
}

/**
 * Parse `<prefix>:allow(rule[,rule...]): reason` and
 * `<prefix>:expect(rule[,rule...])` out of a raw line. The reason is
 * mandatory for allow (an allow without one is an error, keeping the
 * allowlist auditable); @p known decides which rule ids exist.
 */
template <typename KnownFn>
inline Directives
parseDirectives(const std::string &line, const std::string &prefix,
                KnownFn &&known)
{
    Directives d;
    const std::regex dir_re(
        prefix + R"(:(allow|expect)\(([^)]*)\)(\s*:\s*(\S.*))?)");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), dir_re);
         it != std::sregex_iterator(); ++it) {
        const std::string kind = (*it)[1];
        std::string list = (*it)[2];
        const bool has_reason = (*it)[4].matched;
        std::set<std::string> ids;
        std::size_t pos = 0;
        while (pos <= list.size()) {
            std::size_t comma = list.find(',', pos);
            std::string id = list.substr(
                pos, comma == std::string::npos ? comma : comma - pos);
            const auto b = id.find_first_not_of(" \t");
            const auto e = id.find_last_not_of(" \t");
            id = b == std::string::npos ? "" : id.substr(b, e - b + 1);
            if (!id.empty())
                ids.insert(id);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
        for (const std::string &id : ids) {
            if (!plausibleRuleId(id))
                continue; // prose quoting the syntax, not a directive
            if (!known(id)) {
                d.errors.push_back(prefix + ":" + kind +
                                   " names unknown rule '" + id + "'");
                continue;
            }
            if (kind == "allow") {
                if (!has_reason) {
                    d.errors.push_back(
                        prefix + ":allow(" + id +
                        ") needs a reason: " + prefix + ":allow(" +
                        id + "): <why this is sanctioned>");
                    continue;
                }
                d.allow.insert(id);
            } else {
                d.expect.insert(id);
            }
        }
    }
    return d;
}

} // namespace lintutil

#endif // CMPQOS_TOOLS_LINT_UTIL_HH
