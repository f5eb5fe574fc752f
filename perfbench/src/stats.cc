#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench
{

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    // Nearest rank: ceil(q * n), 1-based. The epsilon absorbs the
    // representation error of q * n when it is an exact integer
    // (0.99 * 1000 must be rank 990, not 991).
    double rank = std::ceil(q * n - 1e-9);
    rank = std::clamp(rank, 1.0, n);
    return values[static_cast<std::size_t>(rank) - 1];
}

double
tailLevel(std::size_t n, std::size_t beyond)
{
    if (n <= beyond)
        return 0.0;
    return 1.0 - static_cast<double>(beyond) / static_cast<double>(n);
}

Summary
summarize(const std::vector<double> &values)
{
    Summary s;
    s.n = values.size();
    s.p50 = percentile(values, 0.5);
    s.tailLevel = tailLevel(s.n);
    if (s.tailLevel == 0.0 && s.n > 0)
        s.tailLevel = 1.0;
    s.tail = percentile(values, s.tailLevel);
    return s;
}

double
FailureTally::fraction() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
}

bool
crossesQuantum(std::uint64_t prev_time, std::uint64_t time,
               std::uint64_t quantum)
{
    return quantum != 0 && time / quantum > prev_time / quantum;
}

std::string
fnv1a64Hex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

namespace
{

/** "key=A:B" → (A, B); false when the token has another shape. */
bool
pairValue(const std::string &token, const std::string &key,
          std::uint64_t &a, std::uint64_t &b)
{
    if (token.rfind(key + "=", 0) != 0)
        return false;
    unsigned long long x = 0;
    unsigned long long y = 0;
    if (std::sscanf(token.c_str() + key.size() + 1, "%llu:%llu", &x,
                    &y) != 2)
        return false;
    a = x;
    b = y;
    return true;
}

bool
scalarValue(const std::string &token, const std::string &key,
            std::uint64_t &out)
{
    if (token.rfind(key + "=", 0) != 0)
        return false;
    unsigned long long x = 0;
    if (std::sscanf(token.c_str() + key.size() + 1, "%llu", &x) != 1)
        return false;
    out = x;
    return true;
}

} // namespace

FingerprintTallies
parseFingerprint(const std::string &fingerprint)
{
    FingerprintTallies t;
    bool strict = false;
    bool elastic = false;
    bool completed = false;
    bool instr = false;
    std::istringstream in(fingerprint);
    std::string token;
    while (in >> token) {
        strict = strict || pairValue(token, "strict", t.strictCompleted,
                                     t.strictHits);
        elastic = elastic || pairValue(token, "elastic",
                                       t.elasticCompleted,
                                       t.elasticHits);
        completed = completed ||
                    scalarValue(token, "completed", t.completed);
        instr = instr || scalarValue(token, "instr", t.instructions);
        scalarValue(token, "violations", t.violations);
    }
    t.ok = strict && elastic && completed && instr &&
           t.strictHits <= t.strictCompleted &&
           t.elasticHits <= t.elasticCompleted;
    return t;
}

} // namespace perfbench
