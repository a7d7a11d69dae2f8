/**
 * @file
 * DurableLog: the append-only, fsync'd ndjson file discipline under the
 * ResultCache (result_cache.hh), both as `--cache` and as the
 * sweep-scoped `--journal`. A log is one header line plus one line per
 * record; every append is written whole and fsync'd before it counts.
 *
 * Loading tolerates a crash mid-append: a torn final line (no trailing
 * newline) is dropped with a warning, and reopen() truncates the file
 * back to the durable prefix so the next append starts on a clean line
 * boundary. A failed append or fsync (ENOSPC, EIO) never kills the
 * sweep: the log warns once, closes its file and stays degraded —
 * callers keep serving what they already loaded.
 *
 * Not thread-safe; the owners serialize access under their own mutex.
 */

#ifndef ACR_HARNESS_DURABLE_LOG_HH
#define ACR_HARNESS_DURABLE_LOG_HH

#include <cstddef>
#include <string>
#include <vector>

namespace acr::harness
{

/** One fsync'd append-only ndjson file. */
class DurableLog
{
  public:
    /** @param what the log's name in messages ("journal", "cache") */
    explicit DurableLog(const char *what) : what_(what) {}
    ~DurableLog() { close(); }

    DurableLog(const DurableLog &) = delete;
    DurableLog &operator=(const DurableLog &) = delete;

    /**
     * Every complete line of @p path (none if it is missing). A torn
     * final line is dropped with a warning; @p durableBytes receives
     * the offset one past the last complete line.
     */
    std::vector<std::string> load(const std::string &path,
                                  std::size_t &durableBytes) const;

    /** Truncate @p path and write @p header as its first line,
     *  fsync'd; fatal() on I/O errors. */
    void create(const std::string &path, const std::string &header);

    /** Reopen @p path for appending, first truncating it to
     *  @p durableBytes; fatal() on I/O errors. */
    void reopen(const std::string &path, std::size_t durableBytes);

    /** Write @p line plus a newline and fsync. On failure warn, close
     *  the file, and return false; a degraded log appends nothing. */
    bool append(const std::string &line);

    /** Test hook: fail the next append as if the disk were full. */
    void failNextWriteForTest() { failNextWrite_ = true; }

    /** True after create()/reopen(), including after a degrade. */
    bool isOpen() const { return fd_ >= 0 || degraded_; }

    bool degraded() const { return degraded_; }

    void close();

  private:
    const char *what_;
    std::string path_;
    int fd_ = -1;
    bool degraded_ = false;
    bool failNextWrite_ = false;
};

} // namespace acr::harness

#endif // ACR_HARNESS_DURABLE_LOG_HH
