#include "stap/serve/snapshot.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "stap/base/compile_cache.h"
#include "stap/base/metrics.h"
#include "stap/base/trace.h"

namespace stap {

SchemaRegistry::SchemaRegistry()
    : snapshot_(std::make_shared<const SchemaSnapshot>()) {}

std::shared_ptr<const CompiledSchema> SchemaRegistry::Lookup(
    const std::string& name) const {
  std::shared_ptr<const SchemaSnapshot> snapshot = Current();
  auto it = snapshot->schemas.find(name);
  if (it == snapshot->schemas.end()) return nullptr;
  return it->second;
}

int64_t SchemaRegistry::Swap(SchemaMap schemas) {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  auto next = std::make_shared<SchemaSnapshot>();
  next->version = Current()->version + 1;
  next->schemas = std::move(schemas);
  const int64_t version = next->version;
  // The old epoch is released after the lock: if this was its last
  // reference, its teardown must not hold readers up.
  std::shared_ptr<const SchemaSnapshot> previous;
  {
    std::lock_guard<std::mutex> snapshot_lock(snapshot_mutex_);
    previous = std::exchange(snapshot_, std::move(next));
  }
  GetCounter("serve.snapshot_swaps")->Increment();
  GetGauge("serve.snapshot_epoch")->Set(version);
  return version;
}

StatusOr<std::shared_ptr<const CompiledSchema>>
SchemaRegistry::GetOrCompileText(std::string_view text, CompileCache* cache) {
  static Counter* const hits = GetCounter("serve.inline_hit");
  static Counter* const misses = GetCounter("serve.inline_miss");
  static Counter* const retries = GetCounter("serve.inline_retry");

  std::shared_ptr<InlineEntry> entry;
  bool owner = false;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(inline_mutex_);
      auto it = inline_.find(std::string(text));
      if (it == inline_.end()) {
        entry = std::make_shared<InlineEntry>();
        inline_.emplace(std::string(text), entry);
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
    // Same non-poisoning discipline as CompileCache::GetOrCompile: the
    // failed owner un-published the entry; retry with our own resources.
    retries->Increment();
  }

  misses->Increment();
  StatusOr<CompiledSchema> compiled = [&] {
    ScopedSpan span("serve.inline_compile");
    return CompileSchema(text, cache);
  }();

  if (!compiled.ok()) {
    {
      std::lock_guard<std::mutex> lock(inline_mutex_);
      auto it = inline_.find(std::string(text));
      if (it != inline_.end() && it->second == entry) inline_.erase(it);
    }
    {
      std::lock_guard<std::mutex> lock(entry->mutex);
      entry->status = compiled.status();
      entry->done = true;
    }
    entry->cv.notify_all();
    return compiled.status();
  }

  auto value = std::make_shared<const CompiledSchema>(std::move(*compiled));
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    entry->value = value;
    entry->done = true;
  }
  entry->cv.notify_all();
  return value;
}

int64_t SchemaRegistry::num_inline() const {
  std::lock_guard<std::mutex> lock(inline_mutex_);
  return static_cast<int64_t>(inline_.size());
}

StatusOr<SchemaMap> LoadSchemaDir(const std::string& dir,
                                  CompileCache* cache) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return NotFoundError("schema directory '" + dir + "' does not exist");
  }
  SchemaMap schemas;
  for (const fs::directory_entry& dirent : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (!dirent.is_regular_file()) continue;
    const fs::path& path = dirent.path();
    const std::string extension = path.extension().string();
    if (extension != ".stap" && extension != ".stapc") continue;
    std::ifstream file(path, std::ios::binary);
    std::ostringstream buffer;
    if (!file || !(buffer << file.rdbuf())) {
      return NotFoundError("cannot read schema file '" + path.string() + "'");
    }
    const std::string bytes = buffer.str();
    StatusOr<CompiledSchema> schema =
        LooksLikeArtifact(bytes) ? DeserializeArtifact(bytes)
                                 : CompileSchema(bytes, cache);
    if (!schema.ok()) {
      return Status(schema.status().code(),
                    path.string() + ": " + schema.status().message());
    }
    schemas[path.stem().string()] =
        std::make_shared<const CompiledSchema>(std::move(*schema));
  }
  if (ec) {
    return NotFoundError("cannot list schema directory '" + dir +
                         "': " + ec.message());
  }
  return schemas;
}

}  // namespace stap
