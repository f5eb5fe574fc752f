/**
 * @file
 * The submission journal: the daemon's deterministic replay log.
 *
 * Every submission an epoch offers to admission — accepted AND
 * rejected, in the exact order the engine placed them — is appended
 * as one ArrivalLine (cluster/arrival.hh), the definition
 * TraceArrivalProcess reads back, with every column written
 * (`<time> <benchmark> <tier> <instructions>`), preceded by a comment
 * header recording the epoch's full EpochConfig and the
 * cluster_driver command that replays it. Rejections must be logged
 * because the fingerprint digests the submitted/rejected counters;
 * the replayed engine re-derives every verdict itself.
 *
 * A journal file is therefore a valid TraceArrivalProcess input:
 * feeding it back through an engine built from the recorded config
 * reproduces the live epoch's ClusterMetrics::fingerprint() exactly,
 * at any worker-thread count. Protocol-level failures (malformed
 * frames, unknown benchmarks, submissions during a drain) never reach
 * admission and never touch the journal.
 *
 * Each line is flushed as it is written, so a torn-down daemon leaves
 * a journal that replays everything it admitted.
 */

#ifndef CMPQOS_SERVICE_JOURNAL_HH
#define CMPQOS_SERVICE_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "cluster/arrival.hh"
#include "service/epoch_config.hh"

namespace cmpqos
{

/** Write side of one epoch's journal. */
class SubmissionJournal
{
  public:
    /** Create @p path (truncating) and write the header; fatal() if
     *  the file cannot be opened. @p epoch is recorded in the header
     *  for operators; replay does not need it. */
    SubmissionJournal(std::string path, const EpochConfig &config,
                      std::uint64_t epoch);
    ~SubmissionJournal();

    SubmissionJournal(const SubmissionJournal &) = delete;
    SubmissionJournal &operator=(const SubmissionJournal &) = delete;

    /**
     * Append one submission (line is flushed before returning).
     * Times must be monotone — the same contract
     * TraceArrivalProcess enforces on read-back.
     */
    void append(Cycle time, const std::string &benchmark, QosTier tier,
                InstCount instructions);

    /** Flush and close; append() is invalid afterwards. */
    void close();

    /** Submissions appended so far. */
    std::uint64_t entries() const { return entries_; }

    const std::string &filePath() const { return path_; }

  private:
    std::string path_;
    std::ofstream out_;
    std::uint64_t entries_ = 0;
    Cycle lastTime_ = 0;
    bool open_ = true;
};

/**
 * Read an epoch journal's header back into an EpochConfig (the
 * `# config:` line). Returns false with @p err set when the file is
 * unreadable or carries no config line. The arrival lines themselves
 * are read by TraceArrivalProcess, which skips the comments.
 */
bool readJournalConfig(const std::string &path, EpochConfig &out,
                       std::string &err);

} // namespace cmpqos

#endif // CMPQOS_SERVICE_JOURNAL_HH
