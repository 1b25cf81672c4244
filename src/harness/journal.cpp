#include "harness/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/fsutil.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace pasta::harness {

std::string
to_json_line(const JournalEntry& entry)
{
    std::string line;
    json::Writer w(line);
    w.begin_object()
        .key("tensor").str(entry.tensor_id)
        .key("kernel").str(entry.kernel)
        .key("format").str(entry.format)
        .key("ok").boolean(entry.ok)
        .key("seconds").num(entry.seconds)
        .key("flops").num(entry.flops)
        .key("bytes").num(entry.bytes)
        .key("attempts").i64(entry.attempts)
        .key("error").str(entry.error)
        .key("class").str(entry.failure_class)
        .key("variant").str(entry.variant)
        .key("obs_flops").num(entry.obs_flops)
        .key("obs_bytes").num(entry.obs_bytes)
        .key("mem_peak").num(entry.mem_peak)
        .end_object();
    return line;
}

bool
parse_json_line(const std::string& line, JournalEntry& entry)
{
    json::Value doc;
    JournalEntry e;
    if (!json::parse(line, doc) || !doc.get("tensor", e.tensor_id) ||
        !doc.get("kernel", e.kernel) || !doc.get("format", e.format) ||
        !doc.get("ok", e.ok) || !doc.get_optional("seconds", e.seconds) ||
        !doc.get_optional("flops", e.flops) ||
        !doc.get_optional("bytes", e.bytes) ||
        !doc.get_optional("attempts", e.attempts) ||
        !doc.get_optional("error", e.error) ||
        !doc.get_optional("class", e.failure_class) ||
        !doc.get_optional("variant", e.variant) ||
        !doc.get_optional("obs_flops", e.obs_flops) ||
        !doc.get_optional("obs_bytes", e.obs_bytes) ||
        !doc.get_optional("mem_peak", e.mem_peak))
        return false;
    entry = std::move(e);
    return true;
}

RunJournal::RunJournal(std::string path) : path_(std::move(path))
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path parent = fs::path(path_).parent_path();
    if (!parent.empty())
        fs::create_directories(parent, ec);

    // Replay with manual line splitting so the byte offset of the last
    // intact line is known: a torn final line (no terminating newline,
    // or unparsable — the SIGKILL-mid-append case) is *truncated off*
    // so the resumed run appends from a clean line boundary.
    std::string text;
    {
        std::ifstream in(path_, std::ios::binary);
        if (!in.good())
            return;  // fresh journal
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    std::size_t line_no = 0;
    std::size_t torn = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        if (!terminated)
            nl = text.size();
        const std::string line = text.substr(pos, nl - pos);
        const std::size_t line_start = pos;
        pos = terminated ? nl + 1 : text.size();
        ++line_no;
        if (line.empty())
            continue;
        JournalEntry entry;
        const bool parsed = parse_json_line(line, entry);
        if (parsed && terminated) {
            entries_[key(entry.tensor_id, entry.kernel, entry.format)] =
                entry;
            continue;
        }
        if (pos >= text.size()) {
            // Torn final line: drop it from the file so the next append
            // starts a fresh line instead of gluing onto the fragment.
            PASTA_LOG_WARN << "journal " << path_
                           << ": truncating torn final line " << line_no
                           << " (" << text.size() - line_start
                           << " byte(s) from a killed writer)";
            fs::resize_file(path_, line_start, ec);
            if (ec)
                PASTA_LOG_WARN << "journal " << path_
                               << ": truncation failed: " << ec.message();
            else
                fsutil::fsync_path(path_);
            break;
        }
        ++torn;
        PASTA_LOG_WARN << "journal " << path_ << ": skipping "
                       << "unparsable line " << line_no
                       << " (torn write from a killed run?)";
    }
    if (!entries_.empty()) {
        PASTA_LOG_INFO << "journal " << path_ << ": replayed "
                       << entries_.size() << " trial(s)"
                       << (torn ? " (torn lines skipped)" : "");
    }
}

RunJournal::RunJournal(RunJournal&& other) noexcept
    : path_(std::move(other.path_)),
      entries_(std::move(other.entries_)),
      fd_(other.fd_)
{
    other.fd_ = -1;
    other.path_.clear();
}

RunJournal&
RunJournal::operator=(RunJournal&& other) noexcept
{
    if (this != &other) {
        close_fd();
        path_ = std::move(other.path_);
        entries_ = std::move(other.entries_);
        fd_ = other.fd_;
        other.fd_ = -1;
        other.path_.clear();
    }
    return *this;
}

RunJournal::~RunJournal() { close_fd(); }

void
RunJournal::close_fd()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

std::string
RunJournal::key(const std::string& tensor_id, const std::string& kernel,
                const std::string& format)
{
    return tensor_id + "\x1f" + kernel + "\x1f" + format;
}

const JournalEntry*
RunJournal::find(const std::string& tensor_id, const std::string& kernel,
                 const std::string& format) const
{
    auto it = entries_.find(key(tensor_id, kernel, format));
    return it == entries_.end() ? nullptr : &it->second;
}

bool
RunJournal::has_ok(const std::string& tensor_id, const std::string& kernel,
                   const std::string& format) const
{
    const JournalEntry* entry = find(tensor_id, kernel, format);
    return entry && entry->ok;
}

void
RunJournal::append(const JournalEntry& entry)
{
    if (!enabled())
        return;
    entries_[key(entry.tensor_id, entry.kernel, entry.format)] = entry;
    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(),
                     O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            PASTA_LOG_WARN << "journal " << path_ << ": cannot append";
            return;
        }
    }
    // One write() per line: O_APPEND makes the line land atomically at
    // the end even when several writers share a file by mistake.
    const std::string line = to_json_line(entry) + "\n";
    if (!fsutil::write_all(fd_, line.data(), line.size())) {
        PASTA_LOG_WARN << "journal " << path_ << ": append failed";
        return;
    }
    fsutil::fsync_fd(fd_);
}

}  // namespace pasta::harness
