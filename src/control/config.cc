#include "config.hh"

#include <limits>
#include <variant>

#include "common/json.hh"

namespace cmpqos
{

namespace
{

constexpr double unbounded = std::numeric_limits<double>::infinity();

/** One spec key: its name, its field and, for a number, the closed
 *  range its value must lie in. */
struct SpecKey
{
    const char *name;
    std::variant<bool ControllerConfig::*, double ControllerConfig::*,
                 unsigned ControllerConfig::*,
                 InstCount ControllerConfig::*>
        field;
    double lo = -unbounded;
    double hi = unbounded;
};

/** Every spec key, in the order formatControllerSpec prints them. */
const SpecKey specKeys[] = {
    {"on", &ControllerConfig::enabled},
    {"slack_low", &ControllerConfig::slackLow},
    {"slack_high", &ControllerConfig::slackHigh},
    {"dynamic_slo", &ControllerConfig::dynamicSlo},
    {"slo_slowdown", &ControllerConfig::sloSlowdown, 0.0},
    {"bw_step", &ControllerConfig::bandwidthStep, 0.0, 100.0},
    {"min_window", &ControllerConfig::minWindowInstructions},
    {"p_static", &ControllerConfig::staticPower, 0.0},
    {"dyn_coeff", &ControllerConfig::dynCoeff, 0.0},
    {"power_cap", &ControllerConfig::powerCap, 0.0},
};

} // namespace

std::string
formatControllerSpec(const ControllerConfig &config)
{
    if (!config.enabled)
        return "";
    std::string s;
    for (const SpecKey &k : specKeys) {
        if (!s.empty())
            s += ',';
        s += k.name;
        s += '=';
        s += std::visit([&](auto f) { return formatValue(config.*f); },
                        k.field);
    }
    return s;
}

bool
parseControllerSpec(std::string_view spec, ControllerConfig &out,
                    std::string &error)
{
    // All-or-nothing: parse into a fresh config, commit on success
    // only, so a failed reconfig directive leaves @p out untouched.
    ControllerConfig next;
    // Bare "on"/"off" are accepted as human-friendly shorthands.
    if (spec.empty() || spec == "off" || spec == "on") {
        next.enabled = spec == "on";
        out = next;
        return true;
    }
    next.enabled = true; // a non-empty spec implies the controller
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string_view::npos)
            comma = spec.size();
        const std::string_view pair = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (pair.empty())
            continue;
        const std::size_t eq = pair.find('=');
        if (eq == std::string_view::npos) {
            error = "controller spec entry has no '=': " +
                    std::string(pair);
            return false;
        }
        const std::string_view key = pair.substr(0, eq);
        const std::string_view value = pair.substr(eq + 1);
        const SpecKey *k = nullptr;
        for (const SpecKey &candidate : specKeys)
            if (key == candidate.name)
                k = &candidate;
        if (k == nullptr) {
            error = "unknown controller spec key: " + std::string(key);
            return false;
        }
        if (!std::visit(
                [&](auto f) {
                    return readValue(value, next.*f, k->lo, k->hi);
                },
                k->field)) {
            error = "bad controller spec value: " + std::string(pair);
            return false;
        }
    }
    out = next;
    return true;
}

} // namespace cmpqos
