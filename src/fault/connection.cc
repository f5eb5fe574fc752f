#include "connection.hh"

#include <ostream>

#include "common/line_file.hh"
#include "common/random.hh"

namespace cmpqos
{

namespace
{

/** One directive: its name, the name of its one operand, and whether
 *  a seed may follow (only garbage's does). In ConnFaultType order. */
struct ConnForm
{
    const char *name;
    const char *param;
    bool seeded;
};

constexpr ConnForm connForms[] = {
    {"truncate", "keep_bytes", false},
    {"oversize", "claimed_len", false},
    {"garbage", "n_bytes", true},
    {"corrupt", "byte_offset", false},
};
static_assert(std::size(connForms) ==
              static_cast<std::size_t>(ConnFaultType::CorruptByte) + 1);

/** Read one line's words into @p spec; false, with @p why set, if the
 *  line is not a directive of the table. */
bool
readDirective(const std::vector<std::string_view> &w, ConnFaultSpec &spec,
              std::string &why)
{
    const std::size_t i = findForm(connForms, w[0]);
    if (i == std::size(connForms)) {
        why = "unknown directive '" + std::string(w[0]) + "'";
        return false;
    }
    const ConnForm &f = connForms[i];
    spec.type = static_cast<ConnFaultType>(i);
    const std::string usage = std::string(f.name) + " <" + f.param + ">" +
                              (f.seeded ? " [seed]" : "");
    return checkWordCount(w, 2, 2 + f.seeded, usage, why) &&
           readWord(w[1], spec.param, f.param, why) &&
           (w.size() == 2 || readWord(w[2], spec.seed, "seed", why));
}

} // namespace

std::string
ConnFaultSpec::format() const
{
    const ConnForm &f = connForms[static_cast<std::size_t>(type)];
    std::string s = std::string(f.name) + ' ' + std::to_string(param);
    if (f.seeded)
        s += ' ' + std::to_string(seed);
    return s;
}

std::string
ConnFaultPlan::summary() const
{
    return joinLines(faults, "; ");
}

void
ConnFaultPlan::write(std::ostream &os) const
{
    os << joinLines(faults, "\n", true);
}

bool
ConnFaultPlan::tryParse(std::istream &is, ConnFaultPlan &out,
                        std::string &error)
{
    return readSpecs(is, out.faults, error, readDirective);
}

std::string
corruptFrame(std::string_view frame, const ConnFaultSpec &fault)
{
    switch (fault.type) {
      case ConnFaultType::TruncateFrame:
        return std::string(
            frame.substr(0, static_cast<std::size_t>(fault.param)));
      case ConnFaultType::OversizeFrame: {
        std::string out;
        const auto len = static_cast<std::uint32_t>(fault.param);
        for (int i = 0; i < 4; ++i)
            out.push_back(
                static_cast<char>((len >> (8 * i)) & 0xff));
        return out;
      }
      case ConnFaultType::GarbageBytes: {
        std::string out;
        Rng rng(fault.seed);
        out.reserve(static_cast<std::size_t>(fault.param));
        for (std::uint64_t i = 0; i < fault.param; ++i)
            out.push_back(static_cast<char>(rng.next() & 0xff));
        return out;
      }
      case ConnFaultType::CorruptByte: {
        std::string out(frame);
        if (fault.param < out.size())
            out[static_cast<std::size_t>(fault.param)] ^= 0x01;
        return out;
      }
    }
    return std::string(frame);
}

} // namespace cmpqos
