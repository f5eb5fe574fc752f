#include "epoch_config.hh"

#include <cstdio>
#include <cstdlib>

namespace cmpqos
{

namespace
{

bool
parseU64(std::string_view v, std::uint64_t &out)
{
    if (v.empty())
        return false;
    std::uint64_t acc = 0;
    for (const char c : v) {
        if (c < '0' || c > '9')
            return false;
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (acc > (UINT64_MAX - d) / 10)
            return false;
        acc = acc * 10 + d;
    }
    out = acc;
    return true;
}

bool
parseF64(std::string_view v, double &out)
{
    const std::string s(v);
    char *end = nullptr;
    const double d = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        return false;
    out = d;
    return true;
}

bool
parseBool(std::string_view v, bool &out)
{
    if (v == "1" || v == "true" || v == "on")
        out = true;
    else if (v == "0" || v == "false" || v == "off")
        out = false;
    else
        return false;
    return true;
}

} // namespace

bool
applyEpochDirective(EpochConfig &c, std::string_view key,
                    std::string_view value, std::string &err)
{
    const auto bad = [&](const char *why) {
        err = std::string(key) + "=" + std::string(value) + ": " + why;
        return false;
    };
    std::uint64_t u = 0;
    double f = 0.0;
    bool b = false;
    if (key == "nodes") {
        if (!parseU64(value, u) || u < 1 || u > 4096)
            return bad("want an integer in [1, 4096]");
        c.nodes = static_cast<int>(u);
    } else if (key == "quantum") {
        if (!parseU64(value, u) || u == 0)
            return bad("want a positive cycle count");
        c.quantum = u;
    } else if (key == "seed") {
        if (!parseU64(value, u))
            return bad("want an unsigned integer");
        c.seed = u;
    } else if (key == "policy") {
        if (!parseGacPolicy(value, c.policy))
            return bad(
                "want first-fit, earliest-slot or least-loaded");
    } else if (key == "negotiate") {
        if (!parseBool(value, b))
            return bad("want 0/1");
        c.negotiate = b;
    } else if (key == "elastic-x") {
        if (!parseF64(value, f) || f < 0.0 || f > 1.0)
            return bad("want a fraction in [0, 1]");
        c.elasticX = f;
    } else if (key == "arrival-gap") {
        if (!parseU64(value, u) || u == 0)
            return bad("want a positive cycle count");
        c.arrivalGap = u;
    } else if (key == "instructions") {
        // Every Submit that leaves instructions at 0 takes this
        // count, so it obeys the same bounds as a Submit's own.
        if (!parseU64(value, u) || !arrivalBoundsError(0, u).empty())
            return bad("want an instruction count in [1, 2^40]");
        c.instructions = u;
    } else if (key == "check-invariants") {
        if (!parseBool(value, b))
            return bad("want 0/1");
        c.checkInvariants = b;
    } else if (key == "control") {
        ControllerConfig control;
        std::string spec_err;
        if (!parseControllerSpec(std::string(value), control, spec_err))
            return bad(spec_err.c_str());
        c.control = control;
    } else {
        err = "unknown directive '" + std::string(key) +
              "' (want nodes, quantum, seed, policy, negotiate, "
              "elastic-x, arrival-gap, instructions, "
              "check-invariants or control)";
        return false;
    }
    return true;
}

bool
applyEpochDirectives(EpochConfig &c, std::string_view directives,
                     std::string &err)
{
    EpochConfig next = c;
    std::size_t pos = 0;
    bool any = false;
    while (pos < directives.size()) {
        while (pos < directives.size() &&
               (directives[pos] == ' ' || directives[pos] == '\t'))
            ++pos;
        if (pos >= directives.size())
            break;
        std::size_t end = pos;
        while (end < directives.size() && directives[end] != ' ' &&
               directives[end] != '\t')
            ++end;
        const std::string_view token = directives.substr(pos, end - pos);
        pos = end;
        const std::size_t eq = token.find('=');
        if (eq == std::string_view::npos || eq == 0) {
            err = "malformed directive '" + std::string(token) +
                  "' (want key=value)";
            return false;
        }
        if (!applyEpochDirective(next, token.substr(0, eq),
                                 token.substr(eq + 1), err))
            return false;
        any = true;
    }
    if (!any) {
        err = "no directives given";
        return false;
    }
    c = next;
    return true;
}

std::string
formatEpochConfig(const EpochConfig &c)
{
    char buf[64];
    std::string s;
    s += "nodes=" + std::to_string(c.nodes);
    s += " quantum=" + std::to_string(c.quantum);
    s += " seed=" + std::to_string(c.seed);
    s += " policy=";
    s += gacPolicyName(c.policy);
    s += " negotiate=";
    s += c.negotiate ? "1" : "0";
    std::snprintf(buf, sizeof(buf), "%.17g", c.elasticX);
    s += " elastic-x=";
    s += buf;
    s += " arrival-gap=" + std::to_string(c.arrivalGap);
    s += " instructions=" + std::to_string(c.instructions);
    s += " check-invariants=";
    s += c.checkInvariants ? "1" : "0";
    // The spec is comma-separated (one word), so it fits the
    // whitespace-split grammar; disabled stays absent to keep
    // pre-controller journals replayable byte-for-byte.
    if (c.control.enabled)
        s += " control=" + formatControllerSpec(c.control);
    return s;
}

ArrivalMix
epochMix(const EpochConfig &c)
{
    ArrivalMix mix = ArrivalMix::defaults();
    mix.instructions = c.instructions;
    mix.tiers[static_cast<std::size_t>(QosTier::Silver)].mode =
        ModeSpec::elastic(c.elasticX);
    return mix;
}

ClusterConfig
epochClusterConfig(const EpochConfig &c, unsigned threads)
{
    ClusterConfig cluster;
    cluster.nodes = c.nodes;
    cluster.threads = threads;
    cluster.quantum = c.quantum;
    cluster.policy = c.policy;
    cluster.negotiate = c.negotiate;
    cluster.seed = c.seed;
    cluster.checkInvariants = c.checkInvariants;
    cluster.control = c.control;
    return cluster;
}

std::string
replayCommand(const EpochConfig &c, const std::string &journal_path)
{
    char buf[64];
    std::string s = "cluster_driver --trace " + journal_path;
    s += " --nodes " + std::to_string(c.nodes);
    s += " --quantum " + std::to_string(c.quantum);
    s += " --seed " + std::to_string(c.seed);
    s += " --policy ";
    s += gacPolicyName(c.policy);
    if (!c.negotiate)
        s += " --no-negotiate";
    std::snprintf(buf, sizeof(buf), "%.17g", c.elasticX);
    s += " --elastic-x ";
    s += buf;
    s += " --instructions " + std::to_string(c.instructions);
    if (c.checkInvariants)
        s += " --check-invariants";
    if (c.control.enabled)
        s += " --control " + formatControllerSpec(c.control);
    s += " --fingerprint";
    return s;
}

} // namespace cmpqos
