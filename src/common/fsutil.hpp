/// \file
/// Small POSIX filesystem durability helpers shared by the journal, the
/// stream checkpoints, and the campaign lease/marker files.
///
/// The crash model these serve: a worker process can be SIGKILL'd (or
/// the host can lose power) between any two syscalls, and the state
/// files the supervisor resumes from must either be absent or complete.
/// The standard recipe is write-temp + fsync(file) + rename + fsync(dir);
/// the directory fsync is the step that makes the *rename itself*
/// durable — without it a power loss can resurrect the old name.
#pragma once

#include <cstddef>
#include <string>

namespace pasta::fsutil {

/// write(2) of all `n` bytes, retrying short writes and EINTR.  Returns
/// false (errno from the failing write) on the first real error; the
/// caller decides whether that is fatal.
bool write_all(int fd, const void* data, std::size_t n);

/// fsync(2) an open descriptor; returns false (never throws) on failure
/// so callers on best-effort paths can log and continue.
bool fsync_fd(int fd);

/// Opens `path` read-only, fsyncs it, closes.  Returns false when the
/// file cannot be opened or synced.
bool fsync_path(const std::string& path);

/// fsyncs the directory containing `path` (or `path` itself when it is
/// a directory), making a completed rename/unlink/create in it durable.
/// Returns false when the directory cannot be opened or synced.
bool fsync_parent_dir(const std::string& path);

/// Durable small-file write: temp file + fsync + rename + parent-dir
/// fsync.  Throws PastaError when any step fails (these files are tiny
/// control records — a failed write is a real error, not best-effort).
void write_file_durable(const std::string& path,
                        const std::string& contents);

}  // namespace pasta::fsutil
