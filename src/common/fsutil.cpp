#include "common/fsutil.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>

#include "common/error.hpp"

namespace pasta::fsutil {

bool
write_all(int fd, const void* data, std::size_t n)
{
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

bool
fsync_fd(int fd)
{
    if (fd < 0)
        return false;
    int rc;
    do {
        rc = ::fsync(fd);
    } while (rc != 0 && errno == EINTR);
    return rc == 0;
}

bool
fsync_path(const std::string& path)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    const bool ok = fsync_fd(fd);
    ::close(fd);
    return ok;
}

bool
fsync_parent_dir(const std::string& path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::path dir(path);
    if (!fs::is_directory(dir, ec)) {
        dir = dir.parent_path();
        if (dir.empty())
            dir = ".";
    }
    // O_DIRECTORY guards against a racing replacement by a plain file.
    const int fd =
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0)
        return false;
    const bool ok = fsync_fd(fd);
    ::close(fd);
    return ok;
}

void
write_file_durable(const std::string& path, const std::string& contents)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    PASTA_CHECK_MSG(fd >= 0, "cannot open " << tmp << " for writing");
    if (!write_all(fd, contents.data(), contents.size())) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw PastaError("write to " + tmp + " failed");
    }
    const bool synced = fsync_fd(fd);
    ::close(fd);
    if (!synced) {
        ::unlink(tmp.c_str());
        throw PastaError("fsync of " + tmp + " failed");
    }
    PASTA_CHECK_MSG(std::rename(tmp.c_str(), path.c_str()) == 0,
                    "cannot publish " << path);
    fsync_parent_dir(path);
}

}  // namespace pasta::fsutil
