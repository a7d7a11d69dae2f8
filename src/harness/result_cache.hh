/**
 * @file
 * ResultCache: the sweep harness's one durable result store (DESIGN.md
 * §11) — the paper's "never regenerate what you already have durable"
 * discipline applied to the harness's own sweeps.
 *
 * Entries are keyed by *content*: the canonical serde encoding of the
 * GridPoint itself (workload + full ExperimentConfig + threads;
 * wire::pointHash is its FNV-1a digest). Any bench that enumerates the
 * same experiment — at any grid position, under any sharding — is
 * served the stored result instead of re-simulating.
 *
 * The same store opens two ways:
 *
 *   - unscoped (`--cache`): a cross-bench cache any sweep reads and
 *     extends;
 *   - sweep-scoped (`--journal`): the header also names one sweep —
 *     bench, shard i/N, grid size and gridHash (a wire::ManifestRecord)
 *     — so `--resume` refuses a file from another sweep instead of
 *     silently serving nothing from it (DESIGN.md §10.3).
 *
 * On disk it is one DurableLog (durable_log.hh): a versioned header
 * line (cache schema version, the wire::kVersion its records were
 * encoded under, and for a journal the `scope`), then one fsync'd entry
 * per result, appended as they complete. Every corruption mode
 * degrades to recompute, never to a crash or a wrong table:
 *
 *   - unknown/garbled header, stale cache version, or a wirev that
 *     does not match this build  → the whole cache is cold (truncated
 *     and re-headed; every lookup misses). A journal under --resume
 *     instead refuses to start (fatal, file untouched), as it does for
 *     any other scope;
 *   - a torn final line (no trailing newline)  → dropped and the file
 *     truncated to the durable prefix;
 *   - an unreadable entry line (flipped byte, key/point mismatch,
 *     schema drift)  → that entry alone is skipped (served as a miss);
 *   - a failed append or fsync (ENOSPC, EIO, a yanked disk)  → the
 *     file is disabled with a one-line warning and the sweep keeps
 *     going: find() still serves everything already loaded, insert()
 *     keeps deduplicating in memory, nothing new persists.
 *
 * Quarantined results are never stored: a failed point's natural
 * resume semantic is retry.
 *
 * Thread-safety: find(), insert() and inserts() take an internal
 * mutex; the in-process sweep calls insert() from worker threads. Returned pointers stay
 * valid for the cache's lifetime (std::map nodes are stable under
 * insertion).
 */

#ifndef ACR_HARNESS_RESULT_CACHE_HH
#define ACR_HARNESS_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "harness/durable_log.hh"
#include "harness/wire.hh"

namespace acr::harness
{

/** Content-addressed experiment result store. */
class ResultCache
{
  public:
    /** Bump on any change to the cache file schema (header or entry
     *  layout). Distinct from wire::kVersion, which covers the record
     *  payload encodings and is checked separately via the header's
     *  `wirev` field. */
    static constexpr std::uint64_t kCacheVersion = 1;

    /** @param what the file's name in messages ("cache", "journal") */
    explicit ResultCache(const char *what = "cache")
        : what_(what), log_(what)
    {
    }
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Open the file at @p path and load every readable entry — or,
     * without @p resume, recreate it empty.
     *
     * Unscoped (@p scope null; `--cache`): entries load whatever sweep
     * scope the header names, and a header this build cannot serve
     * from starts the file cold (see the file comment's ladder).
     *
     * Scoped (`--journal`): the header names @p scope. With @p resume,
     * a missing or empty file starts fresh, and a header naming any
     * other scope — another bench, shard, grid, cache or wire version,
     * an unscoped cache, a journal from before scoped headers (its
     * first line is a manifest record) — fatal()s naming the mismatch
     * and leaves the file untouched.
     *
     * Otherwise fatal()s only on real I/O errors (unopenable path,
     * failed fsync).
     */
    void open(const std::string &path,
              const wire::ManifestRecord *scope = nullptr,
              bool resume = true);

    /** True after open() — including after a write-failure degrade
     *  (loaded entries are still served; only persistence stopped). */
    bool isOpen() const { return log_.isOpen(); }

    /** The backing file was disabled by a failed append/fsync. */
    bool degraded() const { return log_.degraded(); }

    /** Test hook: make the next append fail as if the disk were full
     *  (exercises the ENOSPC degrade path without a full disk). */
    void failNextWriteForTest();

    /**
     * Look up @p point by content; nullptr on miss. Counts into
     * hits()/misses(). A point carrying a host-memory trace sink is
     * uncacheable and always misses.
     */
    const ExperimentResult *find(const GridPoint &point);

    /**
     * Append @p result under @p point's content key (fsync'd before
     * returning). No-op for quarantined results (retry semantics),
     * uncacheable points, and keys already present. A failed append
     * (ENOSPC/EIO) degrades the file instead of dying — see the file
     * comment.
     */
    void insert(const GridPoint &point, const ExperimentResult &result);

    /** Entries currently loaded/inserted. */
    std::size_t size() const;

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Entries appended by this process (excludes loaded ones); safe
     *  to read while other threads insert. */
    std::uint64_t inserts() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return inserts_;
    }

    void close();

  private:
    mutable std::mutex mutex_;
    const char *what_;
    DurableLog log_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;

    /** Canonical point encoding (wire::encodePoint dump) → result.
     *  Keyed by the full encoding rather than its hash so even a
     *  64-bit FNV collision cannot serve the wrong experiment. */
    std::map<std::string, ExperimentResult> entries_;
};

} // namespace acr::harness

#endif // ACR_HARNESS_RESULT_CACHE_HH
