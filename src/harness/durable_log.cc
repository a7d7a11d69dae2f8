#include "harness/durable_log.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>

#include "common/logging.hh"

namespace acr::harness
{

namespace
{

/** write(2) all of @p bytes then fsync, retrying EINTR; 0 on success,
 *  else the failing errno. */
int
writeAndSync(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errno;
        }
        off += static_cast<std::size_t>(n);
    }
    while (::fsync(fd) < 0)
        if (errno != EINTR)
            return errno;
    return 0;
}

} // namespace

std::vector<std::string>
DurableLog::load(const std::string &path, std::size_t &durableBytes) const
{
    std::vector<std::string> lines;
    durableBytes = 0;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return lines;
    const std::string content((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    std::size_t start = 0;
    while (start < content.size()) {
        const std::size_t newline = content.find('\n', start);
        if (newline == std::string::npos) {
            // Torn tail: a writer died mid-append. That record is
            // simply produced again.
            warn("%s '%s': dropping torn final line", what_,
                 path.c_str());
            break;
        }
        lines.push_back(content.substr(start, newline - start));
        start = newline + 1;
        durableBytes = start;
    }
    return lines;
}

void
DurableLog::create(const std::string &path, const std::string &header)
{
    ACR_ASSERT(fd_ < 0, "%s already open", what_);
    path_ = path;
    // O_CLOEXEC: forked --worker children must not inherit the log.
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0)
        fatal("cannot create %s '%s': %s", what_, path.c_str(),
              std::strerror(errno));
    if (const int error = writeAndSync(fd_, header + "\n"))
        fatal("writing %s '%s': %s", what_, path.c_str(),
              std::strerror(error));
}

void
DurableLog::reopen(const std::string &path, std::size_t durableBytes)
{
    ACR_ASSERT(fd_ < 0, "%s already open", what_);
    path_ = path;
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd_ < 0)
        fatal("cannot reopen %s '%s': %s", what_, path.c_str(),
              std::strerror(errno));
    // Chop dropped tail bytes so the next append starts on a clean
    // line boundary instead of extending the torn remnant.
    while (::ftruncate(fd_, static_cast<off_t>(durableBytes)) < 0)
        if (errno != EINTR)
            fatal("truncate %s '%s': %s", what_, path.c_str(),
                  std::strerror(errno));
}

bool
DurableLog::append(const std::string &line)
{
    if (fd_ < 0)
        return false;
    int error = 0;
    if (failNextWrite_) {
        // Injected failure: behave exactly as if write(2) returned
        // ENOSPC, so tests drive the same degrade the real disk would.
        failNextWrite_ = false;
        error = ENOSPC;
    } else {
        error = writeAndSync(fd_, line + "\n");
    }
    if (error == 0)
        return true;
    // ENOSPC/EIO must degrade — one warning, the file off, the sweep
    // still running — never take down a multi-hour run over its log.
    warn("%s '%s': append failed (%s); disabling the file — loaded "
         "entries still serve, new results are not persisted",
         what_, path_.c_str(), std::strerror(error));
    ::close(fd_);
    fd_ = -1;
    degraded_ = true;
    return false;
}

void
DurableLog::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    degraded_ = false;
}

} // namespace acr::harness
