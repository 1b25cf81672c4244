/// \file
/// Append-only run journal: checkpoint/resume for suite campaigns.
///
/// Every completed (tensor, kernel, format) trial is appended as one
/// JSON line and made durable, so a killed run loses at most the trial
/// in flight.  Appends go through a POSIX descriptor and fsync after
/// every line.  A re-invoked figure binary reloads the journal and
/// skips trials that already succeeded; failed entries are kept for the
/// record but retried on the next run.  The loader tolerates a torn
/// trailing line (the kill case) by *truncating* it off the file — the
/// resume then appends from a clean line boundary — and skips
/// unparsable interior lines with a warning rather than aborting the
/// campaign.
///
/// Line format (flat JSON, string/number/bool fields only):
///   {"tensor":"r1","kernel":"TTV","format":"COO","ok":true,
///    "seconds":1.25e-4,"flops":4.2e6,"bytes":8.1e6,"attempts":1,
///    "error":"","class":""}
#pragma once

#include <cstddef>
#include <map>
#include <string>

namespace pasta::harness {

/// One journaled trial outcome.
struct JournalEntry {
    std::string tensor_id;
    std::string kernel;
    std::string format;
    bool ok = false;
    double seconds = 0;
    double flops = 0;
    double bytes = 0;
    int attempts = 0;
    std::string error;
    /// Failure class: "" (success), "error", "oom", or "validation"
    /// (harness::failure_class); bench_oocore adds "progress" lines.
    /// Serialized as the optional "class" field; absent in pre-PR-2
    /// journals, which parse as "".
    std::string failure_class;
    /// Observability channel (PASTA_TRACE=counters|full): the variant
    /// label the kernel reported and the trial's counter-derived flop and
    /// byte deltas.  All optional — absent fields parse as ""/0, so older
    /// journals stay loadable.
    std::string variant;
    double obs_flops = 0;
    double obs_bytes = 0;
    /// Bounded-memory channel: the trial's peak governor-reserved bytes
    /// and, for out-of-core sweeps, the partition progress — a killed
    /// trial's journal line says how far it got, and the checkpointed
    /// rerun resumes from there.  Optional like the obs fields.
    double mem_peak = 0;
    int partitions_done = 0;
    int partitions_total = 0;
};

/// Serializes an entry as one JSON line (no trailing newline).
std::string to_json_line(const JournalEntry& entry);

/// Parses a journal line with the strict common/json reader.  Returns
/// false (and logs nothing) on torn or malformed input — including
/// non-JSON numbers, known fields of the wrong type, and integers out of
/// range — so the loader can skip it.
bool parse_json_line(const std::string& line, JournalEntry& entry);

/// Append-only JSONL journal keyed by (tensor, kernel, format); the last
/// line for a key wins on reload.  Unknown fields are ignored, so lines
/// written by older or newer builds still load.
class RunJournal {
  public:
    /// A disabled journal: has() is always false, append() is a no-op.
    RunJournal() = default;

    /// Opens (creating parent directories) and replays `path`,
    /// truncating a torn final line left by a killed writer.
    explicit RunJournal(std::string path);

    RunJournal(const RunJournal&) = delete;
    RunJournal& operator=(const RunJournal&) = delete;
    RunJournal(RunJournal&& other) noexcept;
    RunJournal& operator=(RunJournal&& other) noexcept;
    ~RunJournal();

    bool enabled() const { return !path_.empty(); }
    const std::string& path() const { return path_; }

    /// Entries replayed from disk at open (after last-wins dedup).
    std::size_t size() const { return entries_.size(); }

    /// The entry for a key, or nullptr.
    const JournalEntry* find(const std::string& tensor_id,
                             const std::string& kernel,
                             const std::string& format) const;

    /// True when the key has a *successful* entry (the resume filter).
    bool has_ok(const std::string& tensor_id, const std::string& kernel,
                const std::string& format) const;

    /// Appends one entry and makes it durable (write + fsync).
    void append(const JournalEntry& entry);

  private:
    /// Dedup key over the serialized identity fields.
    static std::string key(const std::string& tensor_id,
                           const std::string& kernel,
                           const std::string& format);

    void close_fd();

    std::string path_;
    std::map<std::string, JournalEntry> entries_;
    int fd_ = -1;           ///< lazily opened O_APPEND descriptor
};

}  // namespace pasta::harness
