/**
 * @file
 * How the tools in tools/ read their flags: numbers follow readValue's
 * rules (common/json.hh), and a missing or bad value is a usage error
 * that names the flag and exits 2 before the tool builds anything.
 */

#ifndef CMPQOS_TOOLS_TOOL_FLAGS_HH
#define CMPQOS_TOOLS_TOOL_FLAGS_HH

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/json.hh"

namespace cmpqos
{

/** Print "<tool>: <why>" to stderr and exit 2. */
[[noreturn]] inline void
refuse(const char *tool, const std::string &why)
{
    std::fprintf(stderr, "%s: %s\n", tool, why.c_str());
    std::exit(2);
}

/** The value after the flag argv[@p i], advancing @p i past it. */
inline const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        refuse(argv[0], "missing value for " + std::string(argv[i]));
    return argv[++i];
}

/** Read @p text, the value of @p flag, into @p out, which must lie in
 *  [@p lo, @p hi]; refuse it as "<flag> <text>: want <want>" if not. */
template <class T>
void
readFlag(const char *tool, const std::string &flag, const std::string &text,
         T &out, const char *want,
         double lo = -std::numeric_limits<double>::infinity(),
         double hi = std::numeric_limits<double>::infinity())
{
    if (!readValue(text, out, lo, hi))
        refuse(tool, flag + " " + text + ": want " + want);
}

} // namespace cmpqos

#endif // CMPQOS_TOOLS_TOOL_FLAGS_HH
