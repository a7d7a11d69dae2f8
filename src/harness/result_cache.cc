#include "harness/result_cache.hh"

#include <vector>

#include "common/logging.hh"

namespace acr::harness
{

namespace
{

std::string
headerLine(const wire::ManifestRecord *scope)
{
    serde::Json json = serde::Json::object();
    json.set("type", "acr-cache")
        .set("cachev", ResultCache::kCacheVersion)
        .set("wirev", wire::kVersion);
    if (scope != nullptr)
        json.set("scope",
                 serde::Json::parse(wire::encodeManifestLine(*scope)));
    return json.dump();
}

/**
 * Why @p line is not a header whose entries this build may serve under
 * @p scope (null: unscoped, which accepts any scope); empty when it is.
 */
std::string
headerMismatch(const std::string &line, const wire::ManifestRecord *scope)
{
    try {
        serde::Json json = serde::Json::parse(line);
        serde::ObjectReader reader(json, "cache header");
        const std::string type = reader.requireString("type");
        if (type == "manifest")
            return "starts with a manifest record (a journal from "
                   "before scoped headers)";
        const std::uint64_t cachev = reader.requireUint("cachev");
        const std::uint64_t wirev = reader.requireUint("wirev");
        const serde::Json *found = reader.optional("scope");
        reader.finish();
        if (type != "acr-cache" || cachev != ResultCache::kCacheVersion)
            return "unrecognized header";
        if (wirev != wire::kVersion)
            return csprintf("entries use wire v%llu but this build "
                            "speaks v%llu",
                            static_cast<unsigned long long>(wirev),
                            static_cast<unsigned long long>(
                                wire::kVersion));
        if (scope == nullptr)
            return "";
        if (found == nullptr)
            return "is an unscoped cache, not a sweep journal";
        const wire::Record record = wire::decodeLine(found->dump());
        if (record.type != wire::Record::Type::kManifest)
            throw serde::SerdeError("scope is not a manifest record");
        const wire::ManifestRecord &have = record.manifest;
        std::string problem = wire::manifestMismatch(have, *scope);
        if (problem.empty() && (have.shard != scope->shard ||
                                have.shardCount != scope->shardCount))
            problem = csprintf(
                "was written for shard %llu/%llu, not %llu/%llu",
                static_cast<unsigned long long>(have.shard),
                static_cast<unsigned long long>(have.shardCount),
                static_cast<unsigned long long>(scope->shard),
                static_cast<unsigned long long>(scope->shardCount));
        return problem;
    } catch (const serde::SerdeError &error) {
        return csprintf("unreadable header (%s)", error.what());
    }
}

std::string
entryLine(const std::string &point_dump, std::uint64_t key,
          const ExperimentResult &result)
{
    serde::Json json = serde::Json::object();
    json.set("type", "entry")
        .set("key", key)
        .set("point", serde::Json::parse(point_dump))
        .set("result", wire::encodeResult(result));
    return json.dump();
}

} // namespace

ResultCache::~ResultCache()
{
    close();
}

void
ResultCache::open(const std::string &path,
                  const wire::ManifestRecord *scope, bool resume)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t durable_bytes = 0;
    std::vector<std::string> lines;
    if (resume)
        lines = log_.load(path, durable_bytes);

    // A header this build cannot serve from makes a cache cold: every
    // lookup misses, the sweep recomputes, and the file is re-headed.
    // A journal being resumed is the user's record of one sweep, so
    // it is refused, never overwritten.
    const std::string problem =
        lines.empty() ? "" : headerMismatch(lines.front(), scope);
    if (!problem.empty()) {
        if (scope != nullptr)
            fatal("%s '%s': %s; rerun without --resume to start it "
                  "over",
                  what_, path.c_str(), problem.c_str());
        warn("%s '%s': %s; starting cold", what_, path.c_str(),
             problem.c_str());
    }
    if (lines.empty() || !problem.empty()) {
        log_.create(path, headerLine(scope));
        return;
    }

    for (std::size_t i = 1; i < lines.size(); ++i) {
        // One bad entry (flipped byte, schema drift, key/point
        // mismatch) is a miss for that experiment, not a dead cache.
        try {
            serde::Json json = serde::Json::parse(lines[i]);
            serde::ObjectReader reader(json, "cache entry");
            if (reader.requireString("type") != "entry")
                throw serde::SerdeError("not an entry record");
            const std::uint64_t key = reader.requireUint("key");
            const GridPoint point =
                wire::decodePoint(reader.require("point"));
            ExperimentResult result =
                wire::decodeResult(reader.require("result"));
            reader.finish();
            if (key != wire::pointHash(point))
                throw serde::SerdeError(
                    "key does not match the point encoding");
            entries_[wire::encodePoint(point).dump()] =
                std::move(result);
        } catch (const serde::SerdeError &error) {
            warn("%s '%s': skipping unreadable entry %zu: %s", what_,
                 path.c_str(), i, error.what());
        }
    }
    log_.reopen(path, durable_bytes);
}

void
ResultCache::failNextWriteForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    log_.failNextWriteForTest();
}

const ExperimentResult *
ResultCache::find(const GridPoint &point)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ACR_ASSERT(isOpen(), "cache not open");
    if (point.config.trace != nullptr) {
        // A host-memory trace sink cannot be serialized, so the point
        // was never cached; don't try to encode it.
        ++misses_;
        return nullptr;
    }
    const auto it = entries_.find(wire::encodePoint(point).dump());
    if (it == entries_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return &it->second;
}

void
ResultCache::insert(const GridPoint &point,
                    const ExperimentResult &result)
{
    // Quarantined points are not stored: retrying on the next run is
    // the natural resume semantic.
    if (result.failed || point.config.trace != nullptr)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    ACR_ASSERT(isOpen(), "cache not open");
    const std::string dump = wire::encodePoint(point).dump();
    if (entries_.count(dump))
        return;
    // Degraded (ENOSPC/EIO on an earlier append): keep deduplicating
    // in memory so this process still gets hits; nothing persists.
    const bool durable =
        log_.append(entryLine(dump, wire::pointHash(point), result));
    entries_[dump] = result;
    if (durable)
        ++inserts_;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
ResultCache::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    log_.close();
}

} // namespace acr::harness
