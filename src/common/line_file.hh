/**
 * @file
 * The one reader for the engine's line files: arrival traces (qosd's
 * journals among them), fault plans and connection-fault plans. '#'
 * starts a comment, whitespace separates words, a line without words
 * is skipped, and a number is one whole word read by readValue
 * (common/json.hh), as every flag, directive and JSON field is.
 */

#ifndef CMPQOS_COMMON_LINE_FILE_HH
#define CMPQOS_COMMON_LINE_FILE_HH

#include <concepts>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"

namespace cmpqos
{

/**
 * Call @p fn(number, words) for each line of @p in that holds a word,
 * numbering lines from 1: '#' cuts a comment and whitespace separates
 * words. The words are valid during the call. Stops, returning false,
 * at the first line @p fn refuses.
 */
template <class Fn>
bool
forEachLine(std::istream &in, Fn fn)
{
    constexpr std::string_view space = " \t\n\v\f\r"; // what >> skips
    std::string text;
    std::vector<std::string_view> words;
    for (std::size_t number = 1; std::getline(in, text); ++number) {
        const std::string_view line =
            std::string_view(text).substr(0, text.find('#'));
        words.clear();
        for (std::size_t pos = line.find_first_not_of(space);
             pos != std::string_view::npos;) {
            const std::size_t end = line.find_first_of(space, pos);
            words.push_back(line.substr(pos, end - pos));
            pos = line.find_first_not_of(space, end);
        }
        if (!words.empty() && !fn(number, words))
            return false;
    }
    return true;
}

/** Read a directive file: each line becomes one Spec by @p read(words,
 *  spec, why). False at the first line it refuses, with @p error naming
 *  the line; @p out keeps the lines before it. */
template <class Spec, class Read>
bool
readSpecs(std::istream &in, std::vector<Spec> &out, std::string &error,
          Read read)
{
    return forEachLine(in, [&](std::size_t line, const auto &words) {
        Spec spec;
        std::string why;
        if (!read(words, spec, why)) {
            error = "line " + std::to_string(line) + ": " + why;
            return false;
        }
        out.push_back(spec);
        return true;
    });
}

/** False, with @p why naming @p usage, unless @p words holds @p min to
 *  @p max words. */
inline bool
checkWordCount(const std::vector<std::string_view> &words, std::size_t min,
               std::size_t max, const std::string &usage, std::string &why)
{
    if (words.size() < min)
        why = "expected '" + usage + "'";
    else if (words.size() > max)
        why = "unexpected '" + std::string(words[max]) + "' after '" +
              usage + "'";
    return words.size() >= min && words.size() <= max;
}

/** Read @p word as @p what, a T in [@p lo, @p hi], through readValue;
 *  if it is not one, leave @p out and say why in @p why. */
template <std::integral T>
bool
readWord(std::string_view word, T &out, std::string_view what,
         std::string &why, T lo = std::numeric_limits<T>::min(),
         T hi = std::numeric_limits<T>::max())
{
    if (readValue(word, out, static_cast<double>(lo), static_cast<double>(hi)))
        return true;
    why = std::string(what) + " '" + std::string(word) +
          "' is not an integer in [" + formatValue(lo) + ", " +
          formatValue(hi) + "]";
    return false;
}

/** The index of the row of @p forms named @p name; N if none. */
template <class Form, std::size_t N>
std::size_t
findForm(const Form (&forms)[N], std::string_view name)
{
    std::size_t i = 0;
    while (i < N && name != forms[i].name)
        ++i;
    return i;
}

/** Each spec's format(), @p sep between two, and after the last one
 *  too when @p after_last: both fault plans' summary() and write(). */
template <class Spec>
std::string
joinLines(const std::vector<Spec> &specs, std::string_view sep,
          bool after_last = false)
{
    std::string s;
    for (std::size_t i = 0; i < specs.size(); ++i)
        s += (i > 0 ? std::string(sep) : "") + specs[i].format();
    return after_last && !specs.empty() ? s + std::string(sep) : s;
}

} // namespace cmpqos

#endif // CMPQOS_COMMON_LINE_FILE_HH
