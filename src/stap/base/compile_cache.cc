#include "stap/base/compile_cache.h"

#include <utility>

#include "stap/automata/interner.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

namespace {

// Chained splitmix64 over raw bytes, same mixer as HashIntSpan so the
// whole codebase shares one hash family.
uint64_t HashBytes(uint64_t seed, std::string_view bytes) {
  uint64_t h = seed ^ (bytes.size() * 0x9e3779b97f4a7c15ull);
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i + b]))
              << (8 * b);
    }
    h = MixU64(h ^ word);
  }
  uint64_t tail = 0;
  for (int b = 0; i + b < bytes.size(); ++b) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i + b]))
            << (8 * b);
  }
  if (bytes.size() % 8 != 0) h = MixU64(h ^ tail);
  return h;
}

void AppendLengthPrefixed(std::string* out, std::string_view piece) {
  out->append(std::to_string(piece.size()));
  out->push_back(':');
  out->append(piece);
}

}  // namespace

ContentModelKey MakeContentModelKey(std::string_view regex_source,
                                    const Alphabet& types) {
  ContentModelKey key;
  key.canonical.reserve(regex_source.size() + 16 * types.size());
  AppendLengthPrefixed(&key.canonical, regex_source);
  for (const std::string& name : types.names()) {
    AppendLengthPrefixed(&key.canonical, name);
  }
  key.hash = HashBytes(0x7374617063616368ull /* "stapcach" */, key.canonical);
  return key;
}

CompileCache::CompileCache(int num_shards) {
  uint64_t shards = 1;
  while (shards < static_cast<uint64_t>(num_shards > 0 ? num_shards : 1)) {
    shards <<= 1;
  }
  num_shards_ = shards;
  shards_ = std::make_unique<Shard[]>(num_shards_);
}

StatusOr<std::shared_ptr<const Dfa>> CompileCache::GetOrCompile(
    const ContentModelKey& key, const Compiler& compile) {
  static Counter* const hits = GetCounter("cache.hit");
  static Counter* const misses = GetCounter("cache.miss");
  static Counter* const inserts = GetCounter("cache.insert");
  static Counter* const retries = GetCounter("cache.retry");

  Shard& shard = ShardFor(key.hash);
  std::shared_ptr<Entry> entry;
  bool owner = false;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.map.find(key.canonical);
      if (it == shard.map.end()) {
        entry = std::make_shared<Entry>();
        shard.map.emplace(key.canonical, entry);
        owner = true;
      } else {
        entry = it->second;
      }
    }
    if (owner) break;

    hits->Increment();
    std::unique_lock<std::mutex> lock(entry->mutex);
    entry->cv.wait(lock, [&] { return entry->done; });
    if (entry->status.ok()) return entry->value;
    // The owner's compilation failed. Its failure may be specific to the
    // owner (a tight per-request budget that ran out mid-compile), so
    // inheriting it would poison every concurrent request for this
    // content model. The owner un-published the entry before waking us;
    // re-enter the lookup and compile with our own resources instead.
    retries->Increment();
  }

  misses->Increment();
  StatusOr<Dfa> compiled = [&] {
    ScopedSpan span("cache.compile");
    return compile();
  }();

  if (!compiled.ok()) {
    // Un-publish before waking waiters so the next arrival retries the
    // compilation instead of observing the stale failed entry. Shard and
    // entry locks are never held together (lock-order discipline).
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.map.find(key.canonical);
      if (it != shard.map.end() && it->second == entry) shard.map.erase(it);
    }
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      entry->status = compiled.status();
      entry->done = true;
    }
    entry->cv.notify_all();
    return compiled.status();
  }

  auto value = std::make_shared<const Dfa>(std::move(*compiled));
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->value = value;
    entry->done = true;
  }
  entry->cv.notify_all();
  inserts->Increment();
  return value;
}

int64_t CompileCache::size() const {
  int64_t total = 0;
  for (uint64_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += static_cast<int64_t>(shards_[s].map.size());
  }
  return total;
}

void CompileCache::Clear() {
  for (uint64_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].map.clear();
  }
}

CompileCache* CompileCache::Global() {
  static CompileCache* const cache = new CompileCache();
  return cache;
}

}  // namespace stap
