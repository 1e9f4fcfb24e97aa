#include "serving/shard_store.hpp"

#include <cerrno>
#include <cstdio>
#include <sys/stat.h>
#include <sys/types.h>
#include <dirent.h>
#include <unistd.h>
#include <utility>

#include "util/logging.hpp"
#include "util/mapped_file.hpp"

namespace a3 {

// -------------------------------------------------------------------
// ShardHandle

ShardHandle::ShardHandle(EngineConfig config,
                         std::unique_ptr<AttentionBackend> backend)
    : config_(config), backend_(std::move(backend))
{
    a3Assert(backend_ != nullptr, "shard handle needs a backend");
}

std::shared_ptr<ShardHandle>
ShardHandle::bindTail(const EngineConfig &config, const Matrix &key,
                      const Matrix &value, std::size_t firstRow,
                      std::size_t count)
{
    auto handle = std::shared_ptr<ShardHandle>(new ShardHandle(
        config, makeBackend(config, key.rowSlice(firstRow, count),
                            value.rowSlice(firstRow, count))));
    handle->tracking_ = true;
    handle->hasher_.mixConfig(config, key.cols());
    handle->hasher_.mixTaskRows(key, value, firstRow, count);
    return handle;
}

std::shared_ptr<ShardHandle>
ShardHandle::bindPrivate(const EngineConfig &config, const Matrix &key,
                         const Matrix &value, std::size_t firstRow,
                         std::size_t count)
{
    return std::shared_ptr<ShardHandle>(new ShardHandle(
        config, makeBackend(config, key.rowSlice(firstRow, count),
                            value.rowSlice(firstRow, count))));
}

AttentionBackend &
ShardHandle::mutableBackend()
{
    a3Assert(!frozen_, "frozen shard handles are immutable");
    return *backend_;
}

void
ShardHandle::appendRows(const Matrix &keyRows, const Matrix &valueRows)
{
    a3Assert(!frozen_, "cannot append to a frozen shard");
    backend_->append(keyRows, valueRows);
    if (tracking_)
        hasher_.mixTaskRows(keyRows, valueRows, 0, keyRows.rows());
}

std::size_t
ShardHandle::freeze()
{
    a3Assert(tracking_, "private handles cannot be frozen");
    a3Assert(!frozen_, "handle is already frozen");
    const std::size_t reclaimed = backend_->compact();
    key_ = hasher_.key();
    frozen_ = true;
    return reclaimed;
}

const ShardKey &
ShardHandle::contentKey() const
{
    a3Assert(frozen_, "content key is only final once frozen");
    return key_;
}

// -------------------------------------------------------------------
// ShardStore

const char *
shardSourceName(ShardSource source)
{
    switch (source) {
    case ShardSource::ColdBound:
        return "cold_bound";
    case ShardSource::LiveShared:
        return "live_shared";
    case ShardSource::SpillRestored:
        return "spill_restored";
    }
    return "unknown";
}

namespace {

/** mkdir -p; false when a component exists as a non-directory or
 *  cannot be created. */
bool
ensureDirectory(const std::string &path)
{
    std::string partial;
    partial.reserve(path.size());
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            partial.push_back(path[i]);
            continue;
        }
        if (!partial.empty() && partial != "/" &&
            ::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
        if (i < path.size())
            partial.push_back('/');
    }
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

/** Atomically (write tmp + rename) publish `bytes` at `path`. */
bool
writeFileAtomic(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return false;
    const bool wrote =
        bytes.empty() ||
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

}  // namespace

ShardStore::ShardStore(ShardStoreConfig config)
    : config_(std::move(config))
{
    if (config_.spillDir.empty())
        return;
    a3Assert(ensureDirectory(config_.spillDir),
             "cannot create spill directory ", config_.spillDir);
    std::lock_guard<std::mutex> lock(mutex_);
    scanSpillDirLocked();
}

void
ShardStore::scanSpillDirLocked()
{
    DIR *dir = ::opendir(config_.spillDir.c_str());
    if (dir == nullptr)
        return;
    const std::string suffix = ".shard";
    while (dirent *entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name.size() != 32 + suffix.size() ||
            name.compare(32, suffix.size(), suffix) != 0)
            continue;
        ShardKey key;
        if (!ShardKey::parseHex(name.substr(0, 32), key))
            continue;
        const std::string path = config_.spillDir + "/" + name;
        struct stat st;
        if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue;
        SpillEntry spillEntry;
        spillEntry.path = path;
        spillEntry.bytes = static_cast<std::size_t>(st.st_size);
        spillLru_.push_front(key);
        spillEntry.lruPos = spillLru_.begin();
        spillBytes_ += spillEntry.bytes;
        spill_.emplace(key, std::move(spillEntry));
    }
    ::closedir(dir);
}

std::shared_ptr<ShardHandle>
ShardStore::liveLookupLocked(const ShardKey &key)
{
    auto it = live_.find(key);
    if (it == live_.end())
        return nullptr;
    std::shared_ptr<ShardHandle> handle = it->second.lock();
    if (handle == nullptr)
        live_.erase(it);
    return handle;
}

void
ShardStore::touchSpillLocked(SpillEntry &entry)
{
    spillLru_.splice(spillLru_.begin(), spillLru_, entry.lruPos);
}

void
ShardStore::dropSpillLocked(const ShardKey &key)
{
    auto it = spill_.find(key);
    if (it == spill_.end())
        return;
    ::unlink(it->second.path.c_str());
    spillBytes_ -= it->second.bytes;
    spillLru_.erase(it->second.lruPos);
    spill_.erase(it);
}

void
ShardStore::enforceSpillBudgetLocked(const ShardKey &keep)
{
    if (config_.spillBudgetBytes == 0)
        return;
    while (spillBytes_ > config_.spillBudgetBytes &&
           spillLru_.size() > 1) {
        ShardKey victim = spillLru_.back();
        if (victim == keep) {
            // The protected image is the LRU tail; rotate it to the
            // front so older images behind it become evictable.
            touchSpillLocked(spill_.find(victim)->second);
            continue;
        }
        dropSpillLocked(victim);
        ++stats_.spillEvictions;
    }
}

void
ShardStore::spillWriteLocked(const ShardHandle &handle)
{
    if (config_.spillDir.empty())
        return;
    const ShardKey &key = handle.key_;
    auto it = spill_.find(key);
    if (it != spill_.end()) {
        touchSpillLocked(it->second);
        return;
    }
    const std::vector<std::uint8_t> image = encodeShardImage(
        handle.config_, key, *handle.backend_);
    const std::string path =
        config_.spillDir + "/" + key.hex() + ".shard";
    if (!writeFileAtomic(path, image))
        return;
    SpillEntry entry;
    entry.path = path;
    entry.bytes = image.size();
    spillLru_.push_front(key);
    entry.lruPos = spillLru_.begin();
    spillBytes_ += entry.bytes;
    spill_.emplace(key, std::move(entry));
    ++stats_.spillWrites;
    enforceSpillBudgetLocked(key);
}

std::unique_ptr<AttentionBackend>
ShardStore::restoreFromSpill(const EngineConfig &config,
                             const ShardKey &key, bool &rejected)
{
    rejected = false;
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = spill_.find(key);
        if (it == spill_.end())
            return nullptr;
        path = it->second.path;
    }

    // Map + decode outside the lock: page faults and dequant-lane
    // copies are the expensive part of a warm restore.
    MappedFile image;
    std::unique_ptr<AttentionBackend> backend;
    if (image.open(path))
        backend =
            decodeShardImage(config, key, image.data(), image.size());
    if (backend == nullptr) {
        // Unreadable or failed validation: treat as a miss and drop
        // the image so the cold bind below rewrites a fresh one.
        std::lock_guard<std::mutex> lock(mutex_);
        dropSpillLocked(key);
        ++stats_.spillRejects;
        rejected = true;
        return nullptr;
    }
    return backend;
}

std::shared_ptr<ShardHandle>
ShardStore::acquire(const EngineConfig &config, const Matrix &key,
                    const Matrix &value, std::size_t firstRow,
                    std::size_t count, ShardSource *source)
{
    // Content-address the slice first (cheap relative to any bind).
    ShardKeyHasher hasher;
    hasher.mixConfig(config, key.cols());
    hasher.mixTaskRows(key, value, firstRow, count);
    const ShardKey contentKey = hasher.key();

    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (std::shared_ptr<ShardHandle> live =
                liveLookupLocked(contentKey)) {
            ++stats_.liveHits;
            if (source != nullptr)
                *source = ShardSource::LiveShared;
            return live;
        }
    }

    bool rejected = false;
    std::unique_ptr<AttentionBackend> backend =
        restoreFromSpill(config, contentKey, rejected);
    ShardSource boundFrom = ShardSource::SpillRestored;
    if (backend == nullptr) {
        backend = makeBackend(config, key.rowSlice(firstRow, count),
                              value.rowSlice(firstRow, count));
        backend->compact();
        boundFrom = ShardSource::ColdBound;
    }

    auto handle = std::shared_ptr<ShardHandle>(
        new ShardHandle(config, std::move(backend)));
    handle->key_ = contentKey;
    handle->frozen_ = true;

    std::lock_guard<std::mutex> lock(mutex_);
    // Another thread may have bound the same shard while we worked
    // outside the lock; its handle is canonical.
    if (std::shared_ptr<ShardHandle> live =
            liveLookupLocked(contentKey)) {
        ++stats_.liveHits;
        if (source != nullptr)
            *source = ShardSource::LiveShared;
        return live;
    }
    live_[contentKey] = handle;
    if (boundFrom == ShardSource::SpillRestored) {
        ++stats_.spillRestores;
        auto it = spill_.find(contentKey);
        if (it != spill_.end())
            touchSpillLocked(it->second);
    } else {
        ++stats_.coldBinds;
        spillWriteLocked(*handle);
    }
    if (source != nullptr)
        *source = boundFrom;
    return handle;
}

std::shared_ptr<ShardHandle>
ShardStore::adoptFrozen(std::shared_ptr<ShardHandle> handle)
{
    a3Assert(handle != nullptr && handle->frozen(),
             "only frozen handles can be adopted");
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.adoptions;
    if (std::shared_ptr<ShardHandle> live =
            liveLookupLocked(handle->key_)) {
        ++stats_.liveHits;
        return live;
    }
    live_[handle->key_] = handle;
    spillWriteLocked(*handle);
    return handle;
}

ShardStoreStats
ShardStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
ShardStore::liveCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t alive = 0;
    for (const auto &entry : live_)
        if (!entry.second.expired())
            ++alive;
    return alive;
}

std::size_t
ShardStore::spillCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spill_.size();
}

std::size_t
ShardStore::spillBytesInUse() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spillBytes_;
}

void
ShardStore::resetCounters()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_ = ShardStoreStats{};
}

}  // namespace a3
