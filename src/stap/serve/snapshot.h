// Immutable schema snapshots for the serving daemon.
//
// A SchemaSnapshot is an immutable name → CompiledSchema map published
// through a shared_ptr. Readers pin the current epoch by copying that
// pointer under a short lock of their own (a refcount bump, nothing
// else); a hot reload builds a whole new snapshot off to the side and
// swaps the pointer in under the same lock. In-flight requests keep
// validating against the epoch they pinned (the shared_ptr keeps it
// alive), new requests see the new one — RCU by shared_ptr refcount.
// The lock stands in for std::atomic<std::shared_ptr>, which
// ThreadSanitizer does not model in libstdc++.
//
// Inline schemas — requests that carry schema text instead of an "@name"
// ref — compile through an exactly-once memo keyed on the source text:
// when many cold clients reference the same not-yet-compiled schema at
// once (the compile stampede), one caller runs ParseSchema (whose
// per-content-model work is itself deduplicated by the CompileCache) and
// everyone else blocks on the in-flight entry. Like the CompileCache,
// failure is neither cached nor inherited: waiters on a failed owner
// retry with their own resources.
#ifndef STAP_SERVE_SNAPSHOT_H_
#define STAP_SERVE_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "stap/base/status.h"
#include "stap/io/artifact.h"

namespace stap {

class CompileCache;

using SchemaMap =
    std::unordered_map<std::string, std::shared_ptr<const CompiledSchema>>;

struct SchemaSnapshot {
  int64_t version = 0;
  SchemaMap schemas;
};

class SchemaRegistry {
 public:
  SchemaRegistry();

  SchemaRegistry(const SchemaRegistry&) = delete;
  SchemaRegistry& operator=(const SchemaRegistry&) = delete;

  // The current epoch, never null.
  std::shared_ptr<const SchemaSnapshot> Current() const {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    return snapshot_;
  }

  // Convenience lookup in the current epoch; null when absent.
  std::shared_ptr<const CompiledSchema> Lookup(const std::string& name) const;

  // Publishes a new epoch holding exactly `schemas`. Returns the new
  // version. Safe against concurrent readers and concurrent Swaps.
  int64_t Swap(SchemaMap schemas);

  // Exactly-once compilation of inline schema text (see file comment).
  // Successful results are memoized for the registry's lifetime, so a
  // warm inline schema costs one lookup.
  StatusOr<std::shared_ptr<const CompiledSchema>> GetOrCompileText(
      std::string_view text, CompileCache* cache);

  // Number of memoized inline schemas (tests).
  int64_t num_inline() const;

 private:
  struct InlineEntry {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;                            // guarded by mutex
    Status status;                                // guarded by mutex
    std::shared_ptr<const CompiledSchema> value;  // guarded by mutex
  };

  mutable std::mutex snapshot_mutex_;  // guards snapshot_ itself
  std::shared_ptr<const SchemaSnapshot> snapshot_;  // never null
  std::mutex swap_mutex_;  // serializes Swap version bumps

  mutable std::mutex inline_mutex_;
  std::unordered_map<std::string, std::shared_ptr<InlineEntry>> inline_;
};

// Loads every schema in `dir` into a SchemaMap keyed by file basename
// without extension: `*.stapc` files deserialize as compiled artifacts,
// `*.stap` files compile from text through `cache`. Unreadable or
// corrupt files fail the whole load (a serving process should not start
// with a silently partial schema set).
StatusOr<SchemaMap> LoadSchemaDir(const std::string& dir, CompileCache* cache);

}  // namespace stap

#endif  // STAP_SERVE_SNAPSHOT_H_
