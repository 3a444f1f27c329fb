// Hashing and interning for the subset-construction / product-search
// hot paths.
//
// Every kernel that explores a graph of set-keyed nodes — subset
// construction (dense and schema-guided), Moore refinement signatures,
// bottom-up tree-automaton determinization, the counting DPs' sibling
// tuples and profiles — gives each distinct key a dense id. This header
// is the one place that decision is made:
//
//  * HashIntSpan / IntVectorHash / IntSpanKey — the canonical 64-bit hash
//    over int sequences, for vector<int> keys (StateSets, guard keys) and
//    for views into a caller's buffer (Moore signatures).
//  * PackPair / U64Hash — product searches walk pairs of small dense ids;
//    packing two 32-bit ids into one uint64_t key keeps the table flat and
//    the probe sequence cache-friendly.
//  * Interner<Key, Hash> — an open-addressed table mapping keys to dense
//    ids in insertion order, with each key stored exactly once (std::map
//    and unordered_map both duplicate the key per node when paired with
//    an id -> key vector).
#ifndef STAP_AUTOMATA_INTERNER_H_
#define STAP_AUTOMATA_INTERNER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

namespace stap {

// splitmix64 finalizer: full-avalanche mixing of a 64-bit value.
inline uint64_t MixU64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Canonical hash of an int sequence (order-sensitive; StateSets are
// sorted, so equal sets hash equally).
inline uint64_t HashIntSpan(const int* data, size_t size) {
  uint64_t h = 0x243f6a8885a308d3ull ^ (size * 0x9e3779b97f4a7c15ull);
  for (size_t i = 0; i < size; ++i) {
    h = MixU64(h ^ static_cast<uint64_t>(static_cast<uint32_t>(data[i])));
  }
  return h;
}

// Hasher for vector<int> keys (StateSets, ancestor-string guard keys).
struct IntVectorHash {
  size_t operator()(const std::vector<int>& v) const {
    return static_cast<size_t>(HashIntSpan(v.data(), v.size()));
  }
};

// A view of an int sequence stored elsewhere, as an Interner key. Moore
// refinement writes every state's signature into one reused buffer and
// interns views of its rows, so a round allocates nothing per class; the
// buffer must outlive the interner.
struct IntSpanKey {
  const int* data;
  size_t size;
  bool operator==(const IntSpanKey& other) const {
    return std::equal(data, data + size, other.data, other.data + size);
  }
};

struct IntSpanKeyHash {
  size_t operator()(const IntSpanKey& key) const {
    return static_cast<size_t>(HashIntSpan(key.data, key.size));
  }
};

// Packs two dense ids into one table key. Each id is taken as its 32-bit
// pattern, so kNoState (-1) packs to a key of its own.
inline uint64_t PackPair(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

// Hasher for packed pairs.
struct U64Hash {
  size_t operator()(uint64_t key) const {
    return static_cast<size_t>(MixU64(key));
  }
};

// Maps keys to dense ids 0, 1, 2, … in insertion order. Open addressing
// with linear probing over stored 64-bit hashes, load factor below 0.7.
// Keys live in a deque, so the reference operator[] returns stays valid
// across inserts: worklist algorithms hold the current key by reference
// while interning its successors.
template <typename Key, typename Hash>
class Interner {
 public:
  // `expected` presizes the table for that many keys (a hint: the table
  // still grows past it).
  explicit Interner(int expected = 0) : table_(SlotsFor(expected), -1) {
    hashes_.reserve(static_cast<size_t>(expected));
  }

  // Interns `key`, returning (id, inserted). On a hit the argument is
  // left untouched, so callers can keep reusing it as a scratch buffer;
  // on a miss the rvalue form moves it into the table and the const form
  // copies it.
  std::pair<int, bool> Intern(Key&& key) { return Insert(std::move(key)); }
  std::pair<int, bool> Intern(const Key& key) { return Insert(key); }

  // The key with the given id; stays valid across Intern calls.
  const Key& operator[](int id) const { return keys_[id]; }

  int size() const { return static_cast<int>(keys_.size()); }

 private:
  static constexpr size_t kInitialSlots = 64;  // power of two

  static size_t SlotsFor(int expected) {
    size_t slots = kInitialSlots;
    while (slots * 7 <= static_cast<size_t>(expected) * 10) slots *= 2;
    return slots;
  }

  template <typename K>
  std::pair<int, bool> Insert(K&& key) {
    const uint64_t hash = Hash()(key);
    const size_t mask = table_.size() - 1;
    size_t slot = static_cast<size_t>(hash) & mask;
    for (int32_t id; (id = table_[slot]) >= 0; slot = (slot + 1) & mask) {
      if (hashes_[id] == hash && keys_[id] == key) return {id, false};
    }
    const int id = size();
    keys_.push_back(std::forward<K>(key));
    hashes_.push_back(hash);
    table_[slot] = id;
    if (keys_.size() * 10 >= table_.size() * 7) Grow();
    return {id, true};
  }

  void Grow() {
    table_.assign(table_.size() * 2, -1);
    const size_t mask = table_.size() - 1;
    // All stored keys are distinct, so reinsertion only probes for a hole.
    for (size_t id = 0; id < hashes_.size(); ++id) {
      size_t slot = static_cast<size_t>(hashes_[id]) & mask;
      while (table_[slot] >= 0) slot = (slot + 1) & mask;
      table_[slot] = static_cast<int32_t>(id);
    }
  }

  std::deque<Key> keys_;          // id -> key
  std::vector<uint64_t> hashes_;  // id -> full hash (avoids re-hashing)
  std::vector<int32_t> table_;    // open addressing; -1 = empty
};

}  // namespace stap

#endif  // STAP_AUTOMATA_INTERNER_H_
