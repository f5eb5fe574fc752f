#include "plan.hh"

#include <fstream>
#include <ostream>

#include "common/line_file.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace cmpqos
{

namespace
{

/** One directive: its name, whether it targets a shard link
 *  (federated engine only) rather than a node, whether it covers a
 *  window of quanta, and the name of the one further operand some
 *  take: probe-timeout's failures, or a stall in cycles. */
struct FaultForm
{
    const char *name;
    bool shard;
    bool window;
    const char *extra = nullptr;
};

/** Every directive, in FaultType order. Each line is the name, the
 *  target and the quantum, then the window length and the further
 *  operand, either of which may be left out. */
constexpr FaultForm faultForms[] = {
    {"crash", false, false},
    {"restart", false, false},
    {"probe-drop", false, true},
    {"probe-timeout", false, true, "failures"},
    {"dup-reply", false, true},
    {"slow-quantum", false, true, "stall_cycles"},
    {"link-drop", true, true},
    {"link-dup", true, true},
    {"link-delay", true, true, "delay_cycles"},
    {"partition", true, true},
};
static_assert(std::size(faultForms) ==
              static_cast<std::size_t>(FaultType::Partition) + 1);

const FaultForm &
formOf(FaultType t)
{
    return faultForms[static_cast<std::size_t>(t)];
}

/** Read one line's words into @p spec; false, with @p why set, if the
 *  line is not a directive of the table. */
bool
readDirective(const std::vector<std::string_view> &w, FaultSpec &spec,
              std::string &why)
{
    const std::size_t i = findForm(faultForms, w[0]);
    if (i == std::size(faultForms)) {
        why = "unknown fault type '" + std::string(w[0]) + "'";
        return false;
    }
    const FaultForm &f = faultForms[i];
    spec.type = static_cast<FaultType>(i);
    const std::string usage =
        std::string(f.name) + (f.shard ? " <shard>" : " <node>") +
        " <quantum>" + (f.window ? " [quanta]" : "") +
        (f.extra != nullptr ? " [" + std::string(f.extra) + "]" : "");
    if (!checkWordCount(w, 3, 3 + f.window + (f.extra != nullptr), usage,
                        why) ||
        !readWord(w[1], spec.node, f.shard ? "shard" : "node", why, 0) ||
        !readWord(w[2], spec.quantum, "quantum", why) ||
        (w.size() > 3 && !readWord(w[3], spec.durationQuanta, "quanta",
                                   why, std::uint64_t{1})))
        return false;
    if (w.size() < 5)
        return true;
    return spec.type == FaultType::ProbeTimeout
               ? readWord(w[4], spec.failures, f.extra, why)
               : readWord(w[4], spec.stallCycles, f.extra, why);
}

} // namespace

std::string
FaultSpec::format() const
{
    const FaultForm &f = formOf(type);
    std::string s = std::string(f.name) + ' ' + std::to_string(node) + ' ' +
                    std::to_string(quantum);
    if (f.window)
        s += ' ' + std::to_string(durationQuanta);
    if (f.extra != nullptr)
        s += ' ' + std::to_string(type == FaultType::ProbeTimeout
                                      ? Cycle{failures}
                                      : stallCycles);
    return s;
}

std::string
FaultPlan::summary() const
{
    return faults.empty() ? "(empty)" : joinLines(faults, "; ");
}

void
FaultPlan::write(std::ostream &os) const
{
    os << joinLines(faults, "\n", true);
}

bool
FaultPlan::tryParse(std::istream &is, FaultPlan &out, std::string &error)
{
    return readSpecs(is, out.faults, error, readDirective);
}

FaultPlan
FaultPlan::parseFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        cmpqos_fatal("cannot open fault plan '%s'", path.c_str());
    FaultPlan plan;
    std::string error;
    if (!tryParse(is, plan, error))
        cmpqos_fatal("fault plan '%s': %s", path.c_str(),
                     error.c_str());
    return plan;
}

FaultPlan
FaultPlan::random(std::uint64_t seed, int nodes,
                  std::uint64_t max_quantum, std::size_t events)
{
    cmpqos_assert(nodes > 0, "random plan needs at least one node");
    cmpqos_assert(max_quantum > 0, "random plan needs a horizon");
    Rng rng(seed);
    FaultPlan plan;
    for (std::size_t i = 0; i < events; ++i) {
        FaultSpec spec;
        spec.node = static_cast<NodeId>(
            rng.uniformInt(static_cast<std::uint64_t>(nodes)));
        spec.quantum = 1 + rng.uniformInt(max_quantum);
        switch (rng.uniformInt(5)) {
          case 0: {
            spec.type = FaultType::NodeCrash;
            plan.faults.push_back(spec);
            // Most crashes heal: pair a restart a few quanta later so
            // random plans exercise reconciliation both ways.
            if (rng.uniform() < 0.75) {
                FaultSpec heal = spec;
                heal.type = FaultType::NodeRestart;
                heal.quantum += 1 + rng.uniformInt(4);
                plan.faults.push_back(heal);
            }
            continue;
          }
          case 1:
            spec.type = FaultType::ProbeDrop;
            spec.durationQuanta = 1 + rng.uniformInt(3);
            break;
          case 2:
            spec.type = FaultType::ProbeTimeout;
            spec.durationQuanta = 1 + rng.uniformInt(3);
            // Mix recoverable (within the default retry budget) and
            // unreachable (beyond it) timeout windows.
            spec.failures =
                1 + static_cast<unsigned>(rng.uniformInt(5));
            break;
          case 3:
            spec.type = FaultType::DuplicateReply;
            spec.durationQuanta = 1 + rng.uniformInt(3);
            break;
          default:
            spec.type = FaultType::SlowQuantum;
            spec.durationQuanta = 1 + rng.uniformInt(4);
            spec.stallCycles = 50'000 + rng.uniformInt(400'000);
            break;
        }
        plan.faults.push_back(spec);
    }
    return plan;
}

FaultPlan
FaultPlan::randomFederated(std::uint64_t seed, int nodes, int shards,
                           std::uint64_t max_quantum,
                           std::size_t events)
{
    cmpqos_assert(shards > 0, "federated plan needs at least one shard");
    // Node faults first (same generator, distinct stream), then a
    // link-fault sprinkle over the shards: roughly one link event per
    // three node events, mixing every link type.
    FaultPlan plan = random(seed, nodes, max_quantum, events);
    Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
    const std::size_t link_events = 1 + events / 3;
    for (std::size_t i = 0; i < link_events; ++i) {
        FaultSpec spec;
        spec.node = static_cast<NodeId>(
            rng.uniformInt(static_cast<std::uint64_t>(shards)));
        spec.quantum = 1 + rng.uniformInt(max_quantum);
        spec.durationQuanta = 1 + rng.uniformInt(3);
        switch (rng.uniformInt(4)) {
          case 0: spec.type = FaultType::LinkDrop; break;
          case 1: spec.type = FaultType::LinkDup; break;
          case 2:
            spec.type = FaultType::LinkDelay;
            spec.stallCycles = 10'000 + rng.uniformInt(200'000);
            break;
          default: spec.type = FaultType::Partition; break;
        }
        plan.faults.push_back(spec);
    }
    return plan;
}

bool
FaultPlan::hasLinkFaults() const
{
    for (const FaultSpec &f : faults)
        if (formOf(f.type).shard)
            return true;
    return false;
}

void
FaultPlan::validate(int nodes, int shards) const
{
    for (const FaultSpec &f : faults) {
        if (formOf(f.type).shard) {
            if (shards <= 0)
                cmpqos_fatal("fault plan contains shard-link faults "
                             "('%s') but the engine is not federated",
                             f.format().c_str());
            if (f.node < 0 || f.node >= shards)
                cmpqos_fatal("fault plan targets shard %d, federation "
                             "has %d shards ('%s')",
                             f.node, shards, f.format().c_str());
        } else if (f.node < 0 || f.node >= nodes) {
            cmpqos_fatal("fault plan targets node %d, cluster has %d "
                         "nodes ('%s')",
                         f.node, nodes, f.format().c_str());
        }
        // A plan built in code gets the window bound a read one does.
        if (formOf(f.type).window && f.durationQuanta == 0)
            cmpqos_fatal("fault plan window must cover >= 1 quantum "
                         "('%s')",
                         f.format().c_str());
    }
}

} // namespace cmpqos
