#include "epoch_config.hh"

#include <limits>
#include <type_traits>
#include <variant>

#include "common/json.hh"

namespace cmpqos
{

namespace
{

constexpr double unbounded = std::numeric_limits<double>::infinity();

/** One epoch key: its name (the directive key, and the flag after
 *  "--"), the field it sets, and which values are legal. */
struct EpochKey
{
    const char *name;
    std::variant<int EpochConfig::*, std::uint64_t EpochConfig::*,
                 double EpochConfig::*, bool EpochConfig::*,
                 GacPolicy EpochConfig::*, ControllerConfig EpochConfig::*>
        field;
    /** The legal values, for the error message. */
    const char *want;
    /** A number's closed range. */
    double lo = 0.0;
    double hi = unbounded;
    /** Written into the replay command, so also a cluster_driver
     *  flag. */
    bool replayed = true;
};

/** Every epoch key, in the order the `# config:` line and the replay
 *  command print them. */
const EpochKey epochKeys[] = {
    {"nodes", &EpochConfig::nodes, "want an integer in [1, 4096]", 1, 4096},
    {"quantum", &EpochConfig::quantum, "want a positive cycle count", 1},
    {"seed", &EpochConfig::seed, "want an unsigned integer"},
    {"policy", &EpochConfig::policy,
     "want first-fit, earliest-slot or least-loaded"},
    {"negotiate", &EpochConfig::negotiate,
     "want 1/0, true/false or on/off"},
    {"elastic-x", &EpochConfig::elasticX, "want a fraction in [0, 1]", 0,
     1},
    {"arrival-gap", &EpochConfig::arrivalGap, "want a positive cycle count",
     1, unbounded, false},
    // Every Submit that leaves instructions at 0 takes this count, so
    // it obeys the same bounds as a Submit's own.
    {"instructions", &EpochConfig::instructions,
     "want an instruction count in [1, 2^40]", 1,
     static_cast<double>(maxArrivalInstructions)},
    {"check-invariants", &EpochConfig::checkInvariants,
     "want 1/0, true/false or on/off"},
    {"control", &EpochConfig::control, "want a controller spec"},
};

const EpochKey *
findKey(std::string_view name)
{
    for (const EpochKey &k : epochKeys)
        if (name == k.name)
            return &k;
    return nullptr;
}

bool
isOnOff(const EpochKey &k)
{
    return std::holds_alternative<bool EpochConfig::*>(k.field);
}

/** Read @p value into @p k's field of @p c; false, with @p why set
 *  and @p c unchanged, when the value is not legal. */
bool
setKey(EpochConfig &c, const EpochKey &k, std::string_view value,
       std::string &why)
{
    why = k.want;
    return std::visit(
        [&](auto field) {
            auto &f = c.*field;
            using T = std::remove_reference_t<decltype(f)>;
            if constexpr (std::is_same_v<T, GacPolicy>)
                return parseGacPolicy(value, f);
            else if constexpr (std::is_same_v<T, ControllerConfig>)
                return parseControllerSpec(value, f, why);
            else
                return readValue(value, f, k.lo, k.hi);
        },
        k.field);
}

/** @p k's value in @p c, as setKey reads it back. */
std::string
keyValue(const EpochConfig &c, const EpochKey &k)
{
    return std::visit(
        [&](auto field) -> std::string {
            const auto &f = c.*field;
            using T = std::remove_cvref_t<decltype(f)>;
            if constexpr (std::is_same_v<T, GacPolicy>)
                return gacPolicyName(f);
            else if constexpr (std::is_same_v<T, ControllerConfig>)
                return formatControllerSpec(f);
            else
                return formatValue(f);
        },
        k.field);
}

} // namespace

bool
applyEpochDirective(EpochConfig &c, std::string_view key,
                    std::string_view value, std::string &err)
{
    const EpochKey *k = findKey(key);
    if (k == nullptr) {
        err = "unknown directive '" + std::string(key) + "' (want";
        for (const EpochKey &known : epochKeys)
            err += std::string(&known == epochKeys ? " " : ", ") +
                   known.name;
        err += ")";
        return false;
    }
    std::string why;
    if (!setKey(c, *k, value, why)) {
        err = std::string(key) + "=" + std::string(value) + ": " + why;
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
    std::string s;
    for (const EpochKey &k : epochKeys) {
        // A disabled controller's spec is empty and stays absent, so
        // pre-controller journals replay byte-for-byte.
        const std::string v = keyValue(c, k);
        if (v.empty())
            continue;
        if (!s.empty())
            s += ' ';
        s += k.name;
        s += '=';
        s += v;
    }
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

EpochConfig
driverEpochDefaults()
{
    EpochConfig c;
    c.checkInvariants = false;
    return c;
}

std::string
replayCommand(const EpochConfig &c, const std::string &journal_path)
{
    const EpochConfig base = driverEpochDefaults();
    std::string s = "cluster_driver --trace " + journal_path;
    for (const EpochKey &k : epochKeys) {
        if (!k.replayed)
            continue;
        if (const auto *f = std::get_if<bool EpochConfig::*>(&k.field)) {
            if (c.*(*f) != base.*(*f))
                s += (c.*(*f) ? " --" : " --no-") + std::string(k.name);
        } else if (const std::string v = keyValue(c, k); !v.empty()) {
            s += " --" + std::string(k.name) + " " + v;
        }
    }
    s += " --fingerprint";
    return s;
}

bool
readEpochFlag(EpochConfig &c, bool replayed_only, int argc,
              const char *const *argv, int &i, std::string &err)
{
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--"))
        return false;
    const EpochKey *k = findKey(arg.substr(2));
    std::string_view value = "1";
    if (k == nullptr && arg.starts_with("--no-")) {
        k = findKey(arg.substr(5));
        value = "0";
        if (k != nullptr && !isOnOff(*k))
            return false;
    }
    if (k == nullptr || (replayed_only && !k->replayed))
        return false;
    if (!isOnOff(*k)) {
        if (i + 1 >= argc) {
            err = "missing value for " + std::string(arg);
            return true;
        }
        value = argv[++i];
    }
    std::string why;
    if (!setKey(c, *k, value, why))
        err = std::string(arg) + " " + std::string(value) + ": " + why;
    return true;
}

} // namespace cmpqos
