// A sharded, thread-safe memo for compiled content models.
//
// Every schema load pays Glushkov → determinize → minimize per content
// model, and a serving process loads the same handful of schemas from
// many threads. This cache makes each distinct content model compile
// exactly once per process: concurrent requests for the same key either
// perform the compilation (the first arrival) or block until the owner
// publishes the result, so a batch of workers warming up on one schema
// does the expensive work once instead of N times.
//
// Keys are canonicalized content models: the regex source text plus the
// ordered type-alphabet names it ranges over (the same source over a
// different alphabet compiles to a different DFA). The 64-bit key hash
// (built from the same splitmix64 mixer as automata/interner.h) picks the
// shard; exact equality on the canonical string resolves hash collisions,
// so a collision can never serve the wrong DFA.
//
// Failure is not cached, and it is not inherited either: a compilation
// that returns an error (budget exhaustion, parse error) is reported to
// the owner that ran it, the entry is removed, and every thread that was
// blocked on the in-flight entry re-enters the lookup and compiles with
// its own resources. A transient failure — one request's tight budget
// running out mid-compile — therefore cannot poison concurrent requests
// for the same content model; each caller only ever observes its own
// compiler's verdict.
//
// Instrumentation: `cache.hit` counts lookups that found an entry
// (ready or in-flight), `cache.miss` lookups that had to start a
// compilation, `cache.insert` compiled values actually published — so
// `cache.insert` equals the number of distinct keys ever compiled, which
// the concurrency tests assert — and `cache.retry` waiters that observed
// an owner failure and re-entered the lookup.
#ifndef STAP_BASE_COMPILE_CACHE_H_
#define STAP_BASE_COMPILE_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "stap/automata/alphabet.h"
#include "stap/automata/dfa.h"
#include "stap/base/status.h"

namespace stap {

// A canonicalized cache key: `hash` routes to a shard, `canonical` is the
// exact identity (hash collisions fall back to string equality).
struct ContentModelKey {
  uint64_t hash = 0;
  std::string canonical;
};

// Builds the canonical key for a content regex over a type alphabet.
// Length-prefixed concatenation, so no (source, names) ambiguity.
ContentModelKey MakeContentModelKey(std::string_view regex_source,
                                    const Alphabet& types);

class CompileCache {
 public:
  // Produces the value for a key on a miss. Must be safe to run on
  // whichever thread arrives first; errors are reported, not cached.
  using Compiler = std::function<StatusOr<Dfa>()>;

  // `num_shards` is rounded up to a power of two (at least 1).
  explicit CompileCache(int num_shards = 16);

  CompileCache(const CompileCache&) = delete;
  CompileCache& operator=(const CompileCache&) = delete;

  // Returns the DFA for `key`, invoking `compile` exactly once per key
  // across all threads while compilation succeeds. Concurrent callers
  // for the same key block until the first caller's compilation finishes
  // and then share its result; if that compilation fails, each blocked
  // caller retries the lookup (typically becoming the new owner) so a
  // non-OK return always reflects the caller's own `compile`.
  StatusOr<std::shared_ptr<const Dfa>> GetOrCompile(const ContentModelKey& key,
                                                    const Compiler& compile);

  // Number of entries (ready or in-flight) across all shards.
  int64_t size() const;

  // Drops every entry. Not linearizable against concurrent GetOrCompile
  // calls (in-flight compilations still publish to their waiters); meant
  // for tests and explicit cache invalidation between workloads.
  void Clear();

  // The process-wide cache used by the CLI and the batch driver.
  static CompileCache* Global();

 private:
  struct Entry {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;           // guarded by mutex
    Status status;               // guarded by mutex; non-OK = failed
    std::shared_ptr<const Dfa> value;  // guarded by mutex until done
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::shared_ptr<Entry>> map;
  };

  Shard& ShardFor(uint64_t hash) {
    return shards_[hash & (num_shards_ - 1)];
  }

  uint64_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace stap

#endif  // STAP_BASE_COMPILE_CACHE_H_
