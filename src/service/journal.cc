#include "journal.hh"

#include "common/logging.hh"

namespace cmpqos
{

SubmissionJournal::SubmissionJournal(std::string path,
                                     const EpochConfig &config,
                                     std::uint64_t epoch)
    : path_(std::move(path)), out_(path_, std::ios::trunc)
{
    if (!out_)
        cmpqos_fatal("cannot open journal '%s' for writing",
                     path_.c_str());
    out_ << "# cmpqos-journal v1 epoch=" << epoch << "\n";
    out_ << "# config: " << formatEpochConfig(config) << "\n";
    out_ << "# replay: " << replayCommand(config, path_) << "\n";
    out_ << "# columns: <time_cycles> <benchmark> <tier> "
            "<instructions>\n";
    out_.flush();
    if (!out_)
        cmpqos_fatal("journal '%s': header write failed",
                     path_.c_str());
}

SubmissionJournal::~SubmissionJournal()
{
    if (open_)
        close();
}

void
SubmissionJournal::append(Cycle time, const std::string &benchmark,
                          QosTier tier, InstCount instructions)
{
    cmpqos_assert(open_, "append to a closed journal '%s'",
                  path_.c_str());
    cmpqos_assert(entries_ == 0 || time >= lastTime_,
                  "journal '%s': time %llu after %llu breaks the "
                  "monotone-trace contract",
                  path_.c_str(),
                  static_cast<unsigned long long>(time),
                  static_cast<unsigned long long>(lastTime_));
    lastTime_ = time;
    ArrivalLine{time, benchmark, tier, instructions}.write(out_);
    out_.flush();
    if (!out_)
        cmpqos_fatal("journal '%s': write failed (disk full?)",
                     path_.c_str());
    ++entries_;
}

void
SubmissionJournal::close()
{
    if (!open_)
        return;
    open_ = false;
    out_ << "# end: " << entries_ << " submissions\n";
    out_.flush();
    out_.close();
}

bool
readJournalConfig(const std::string &path, EpochConfig &out,
                  std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open journal '" + path + "'";
        return false;
    }
    const std::string tag = "# config: ";
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(tag, 0) == 0) {
            EpochConfig parsed; // defaults, then the recorded values
            if (!applyEpochDirectives(parsed, line.substr(tag.size()),
                                      err)) {
                err = path + ": bad config line: " + err;
                return false;
            }
            out = parsed;
            return true;
        }
        if (!line.empty() && line[0] != '#')
            break; // past the header: no config recorded
    }
    err = path + ": no '# config:' header line";
    return false;
}

} // namespace cmpqos
