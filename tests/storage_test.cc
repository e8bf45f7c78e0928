// Unit and property tests for src/storage: schema, relation, hash index,
// dynamic index, flat merge structures, catalog, and the update-batch
// helpers shared by the engine and the EDB store.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "storage/catalog.h"
#include "storage/chained_index.h"
#include "storage/dyn_index.h"
#include "storage/flat_map.h"
#include "storage/flat_set.h"
#include "storage/hash_index.h"
#include "storage/relation.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "storage/updates.h"

namespace dcdatalog {
namespace {

TEST(SchemaTest, IntsFactory) {
  Schema s = Schema::Ints(3);
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(s.type(2), ColumnType::kInt);
  EXPECT_EQ(s.FindColumn("c1"), 1);
  EXPECT_EQ(s.FindColumn("zz"), -1);
}

TEST(SchemaTest, EqualityIgnoresNames) {
  Schema a({{"x", ColumnType::kInt}, {"y", ColumnType::kDouble}});
  Schema b({{"u", ColumnType::kInt}, {"v", ColumnType::kDouble}});
  Schema c({{"x", ColumnType::kInt}, {"y", ColumnType::kInt}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(RelationTest, AppendAndRead) {
  Relation rel("r", Schema::Ints(2));
  EXPECT_TRUE(rel.empty());
  rel.Append({1, 2});
  rel.Append({3, 4});
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.Row(1)[0], 3u);
  rel.SetWord(1, 1, 9);
  EXPECT_EQ(rel.Row(1)[1], 9u);
}

TEST(RelationTest, AppendAllConcatenates) {
  Relation a("a", Schema::Ints(2)), b("b", Schema::Ints(2));
  a.Append({1, 1});
  b.Append({2, 2});
  b.Append({3, 3});
  a.AppendAll(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.Row(2)[0], 3u);
}

TEST(TupleTest, RefEqualityAndHash) {
  uint64_t a[] = {1, 2, 3};
  uint64_t b[] = {1, 2, 3};
  uint64_t c[] = {1, 2, 4};
  EXPECT_EQ((TupleRef{a, 3}), (TupleRef{b, 3}));
  EXPECT_FALSE((TupleRef{a, 3}) == (TupleRef{c, 3}));
  EXPECT_EQ((TupleRef{a, 3}).Hash(), (TupleRef{b, 3}).Hash());
}

TEST(TupleTest, BufCopiesRef) {
  uint64_t a[] = {7, 8};
  TupleBuf buf{TupleRef{a, 2}};
  a[0] = 99;
  EXPECT_EQ(buf.Ref(2)[0], 7u);
}

// --- Hash index --------------------------------------------------------

TEST(HashIndexTest, BuildAndProbe) {
  Relation rel("r", Schema::Ints(2));
  rel.Append({1, 10});
  rel.Append({2, 20});
  rel.Append({1, 11});
  HashIndex index;
  index.Build(rel, 0);
  std::set<uint64_t> rows;
  index.ForEachMatch(1, [&](uint64_t row) {
    rows.insert(row);
    return true;
  });
  EXPECT_EQ(rows, (std::set<uint64_t>{0, 2}));
  EXPECT_TRUE(index.Contains(2));
  EXPECT_FALSE(index.Contains(3));
}

TEST(HashIndexTest, EmptyRelation) {
  Relation rel("r", Schema::Ints(1));
  HashIndex index;
  index.Build(rel, 0);
  EXPECT_FALSE(index.Contains(0));
}

/// The insert path: many small Append batches — crossing the load-factor
/// rebuild in Finish() several times, with duplicate keys and no-op calls
/// at the watermark — must index exactly the rows a fresh Build would.
TEST(HashIndexTest, AppendInSmallBatchesMatchesBuild) {
  Relation rel("r", Schema::Ints(2));
  Rng rng(11);
  for (uint64_t i = 0; i < 3; ++i) rel.Append({rng.Uniform(40), i});
  HashIndex appended;
  appended.Build(rel, 0);
  uint64_t indexed = rel.size();
  while (rel.size() < 3000) {
    const uint64_t batch = 1 + rng.Uniform(7);
    for (uint64_t b = 0; b < batch; ++b) {
      rel.Append({rng.Uniform(40), rel.size()});
    }
    appended.Append(rel, 0, indexed);
    indexed = rel.size();
    appended.Append(rel, 0, indexed);  // Nothing new: must not change a thing.
  }
  HashIndex fresh;
  fresh.Build(rel, 0);
  ASSERT_EQ(appended.size(), rel.size());
  const auto rows_of = [](const HashIndex& index, uint64_t key) {
    std::multiset<uint64_t> rows;
    index.ForEachMatch(key, [&](uint64_t row) {
      rows.insert(row);
      return true;
    });
    return rows;
  };
  for (uint64_t k = 0; k < 41; ++k) {
    EXPECT_EQ(rows_of(appended, k), rows_of(fresh, k)) << "key " << k;
  }
}

TEST(HashIndexTest, PropertyMatchesMultimap) {
  Relation rel("r", Schema::Ints(2));
  std::multimap<uint64_t, uint64_t> oracle;
  Rng rng(3);
  for (uint64_t i = 0; i < 5000; ++i) {
    uint64_t k = rng.Uniform(400);
    rel.Append({k, i});
    oracle.emplace(k, i);
  }
  HashIndex index;
  index.Build(rel, 0);
  for (uint64_t k = 0; k < 400; ++k) {
    std::multiset<uint64_t> expect;
    auto [lo, hi] = oracle.equal_range(k);
    for (auto it = lo; it != hi; ++it) expect.insert(it->second);
    std::multiset<uint64_t> got;
    index.ForEachMatch(k, [&](uint64_t row) {
      got.insert(rel.Row(row)[1]);
      return true;
    });
    ASSERT_EQ(got.size(), expect.size());
  }
}

// --- DynIndex ----------------------------------------------------------

TEST(DynIndexTest, IncrementalInsertWithGrowth) {
  DynIndex index;
  std::multimap<uint64_t, uint64_t> oracle;
  Rng rng(11);
  for (uint64_t i = 0; i < 3000; ++i) {
    uint64_t k = rng.Uniform(100);
    index.Insert(k);
    oracle.emplace(k, i);
    // Interleave queries with inserts to exercise post-growth state.
    if (i % 257 == 0) {
      uint64_t probe = rng.Uniform(100);
      std::multiset<uint64_t> expect;
      auto [lo, hi] = oracle.equal_range(probe);
      for (auto it = lo; it != hi; ++it) expect.insert(it->second);
      std::multiset<uint64_t> got;
      index.ForEachMatch(probe, [&](uint64_t row) {
        got.insert(row);
        return true;
      });
      ASSERT_EQ(got, expect);
    }
  }
  EXPECT_EQ(index.size(), 3000u);
}

TEST(DynIndexTest, ReservePresizesBuckets) {
  DynIndex index;
  const uint64_t initial = index.bucket_count();
  index.Reserve(3000);
  EXPECT_EQ(index.bucket_count(), 4096u);  // bit_ceil(3000).
  index.Reserve(10);
  EXPECT_EQ(index.bucket_count(), 4096u);  // Never shrinks.
  std::multimap<uint64_t, uint64_t> oracle;
  Rng rng(13);
  for (uint64_t i = 0; i < 3000; ++i) {
    uint64_t k = rng.Uniform(500);
    index.Insert(k);
    oracle.emplace(k, i);
  }
  // Insertion up to the hint never triggered an incremental rebuild.
  EXPECT_EQ(index.bucket_count(), 4096u);
  EXPECT_GT(index.bucket_count(), initial);
  for (uint64_t k = 0; k < 500; ++k) {
    std::multiset<uint64_t> expect;
    auto [lo, hi] = oracle.equal_range(k);
    for (auto it = lo; it != hi; ++it) expect.insert(it->second);
    std::multiset<uint64_t> got;
    index.ForEachMatch(k, [&](uint64_t row) {
      got.insert(row);
      return true;
    });
    ASSERT_EQ(got, expect);
  }
}

// --- FlatTupleSet ------------------------------------------------------

TEST(FlatTupleSetTest, DeduplicatesFullTuples) {
  Relation rel("r", Schema::Ints(2));
  FlatTupleSet set(&rel);
  uint64_t probe[] = {1, 2};
  const TupleRef t12{probe, 2};
  const uint64_t h12 = t12.Hash();
  EXPECT_EQ(set.Find(h12, t12), FlatTupleSet::kNotFound);
  set.Insert(h12, rel.Append(t12));
  EXPECT_EQ(set.Find(h12, t12), 0u);
  uint64_t other[] = {2, 1};
  const TupleRef t21{other, 2};
  EXPECT_EQ(set.Find(t21.Hash(), t21), FlatTupleSet::kNotFound);
  set.Insert(t21.Hash(), rel.Append(t21));
  EXPECT_EQ(set.Find(t21.Hash(), t21), 1u);
  EXPECT_EQ(set.size(), 2u);
}

// Distinct tuples deliberately inserted under the SAME hash must form a
// probe chain: Find has to dereference the backing rows to tell them
// apart, and each full-tuple comparison shows up in probe_cmps().
TEST(FlatTupleSetTest, EqualHashDistinctTuplesChain) {
  Relation rel("r", Schema::Ints(1));
  FlatTupleSet set(&rel);
  const uint64_t kHash = 42;
  for (uint64_t i = 0; i < 16; ++i) {
    uint64_t v[] = {i};
    set.Insert(kHash, rel.Append(TupleRef{v, 1}));
  }
  EXPECT_EQ(set.size(), 16u);
  const uint64_t cmps_before = set.probe_cmps();
  for (uint64_t i = 0; i < 16; ++i) {
    uint64_t v[] = {i};
    ASSERT_EQ(set.Find(kHash, TupleRef{v, 1}), i);
  }
  // 16 lookups over a 16-long chain: the last lookup alone compares
  // against every prior entry, so well over 16 comparisons in total.
  EXPECT_GT(set.probe_cmps() - cmps_before, 16u);
  uint64_t missing[] = {999};
  EXPECT_EQ(set.Find(kHash, TupleRef{missing, 1}), FlatTupleSet::kNotFound);
}

TEST(FlatTupleSetTest, GrowsPastLoadFactorBoundary) {
  Relation rel("r", Schema::Ints(1));
  FlatTupleSet set(&rel);
  const uint64_t initial_slots = set.slot_count();
  for (uint64_t i = 0; i < 10000; ++i) {
    uint64_t v[] = {i};
    const TupleRef t{v, 1};
    const uint64_t h = t.Hash();
    ASSERT_EQ(set.Find(h, t), FlatTupleSet::kNotFound);
    set.Insert(h, rel.Append(t));
  }
  EXPECT_EQ(set.size(), 10000u);
  EXPECT_GT(set.slot_count(), initial_slots);
  // Growth keeps the table under the 60% trigger.
  EXPECT_LT(set.size() * 5, set.slot_count() * 3);
  for (uint64_t i = 0; i < 10000; ++i) {
    uint64_t v[] = {i};
    const TupleRef t{v, 1};
    ASSERT_EQ(set.Find(t.Hash(), t), i);
  }
}

TEST(FlatTupleSetTest, ReserveRoundsUpToPowerOfTwo) {
  Relation rel("r", Schema::Ints(1));
  FlatTupleSet set(&rel);
  set.Reserve(1000);
  // 1000 expected rows -> 2000 slots -> next power of two, 2048.
  EXPECT_EQ(set.slot_count(), 2048u);
  // Reserve never shrinks.
  set.Reserve(10);
  EXPECT_EQ(set.slot_count(), 2048u);
  // A presized set absorbs `expected` inserts without rehashing (<=50%
  // load never crosses the 60% growth trigger).
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t v[] = {i};
    const TupleRef t{v, 1};
    set.Insert(t.Hash(), rel.Append(t));
  }
  EXPECT_EQ(set.slot_count(), 2048u);
}

// --- FlatGroupMap ------------------------------------------------------

TEST(FlatGroupMapTest, FindOrInsertAndInPlaceUpdate) {
  FlatGroupMap map;
  bool inserted = false;
  uint64_t* v = map.FindOrInsert(U128{1, 2}, 10, &inserted);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 10u);
  v = map.FindOrInsert(U128{1, 2}, 99, &inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*v, 10u);  // Existing value untouched on hit.
  *v = 77;             // In-place update through the returned pointer.
  EXPECT_EQ(*map.Find(U128{1, 2}), 77u);
  EXPECT_EQ(map.Find(U128{2, 1}), nullptr);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatGroupMapTest, GrowthPreservesEntries) {
  FlatGroupMap map;
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(7);
  for (uint64_t i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Uniform(1 << 12);
    bool inserted = false;
    uint64_t* v = map.FindOrInsert(U128{k, k + 1}, i, &inserted);
    auto it = oracle.find(k);
    if (it == oracle.end()) {
      ASSERT_TRUE(inserted);
      oracle.emplace(k, i);
    } else {
      ASSERT_FALSE(inserted);
      ASSERT_EQ(*v, it->second);
    }
  }
  EXPECT_EQ(map.size(), oracle.size());
  EXPECT_LT(map.size() * 5, map.slot_count() * 3);
  for (const auto& [k, val] : oracle) {
    const uint64_t* v = map.Find(U128{k, k + 1});
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(*v, val);
  }
}

TEST(FlatGroupMapTest, ClearEmptiesButKeepsSlots) {
  FlatGroupMap map;
  bool inserted = false;
  for (uint64_t k = 0; k < 100; ++k) {
    map.FindOrInsert(U128{k, 1}, k, &inserted);
  }
  const uint64_t slots = map.slot_count();
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.slot_count(), slots);  // No shrink, no reallocation.
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_EQ(map.Find(U128{k, 1}), nullptr) << k;
  }
  // An old key is a fresh insert again, carrying the new value.
  for (uint64_t k = 0; k < 100; ++k) {
    const uint64_t* v = map.FindOrInsert(U128{k, 1}, k + 1000, &inserted);
    ASSERT_TRUE(inserted) << k;
    ASSERT_EQ(*v, k + 1000);
  }
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(map.slot_count(), slots);
}

TEST(FlatGroupMapTest, RehashAfterClearDropsEarlierEpochs) {
  // Each round clears, then inserts enough fresh keys (plus half of the
  // previous round's) to force at least one Rehash. A rehash must carry
  // only the current epoch's entries: no key from an earlier round may
  // resurface, and re-inserted keys carry this round's value.
  FlatGroupMap map;
  bool inserted = false;
  for (uint64_t k = 0; k < 30; ++k) map.FindOrInsert(U128{k, 0}, 0, &inserted);
  for (uint64_t round = 1; round <= 3; ++round) {
    const uint64_t slots = map.slot_count();
    map.Clear();
    const uint64_t base = round * 10000;
    const uint64_t fresh = slots;  // Past the 60 % load threshold.
    for (uint64_t k = 0; k < fresh; ++k) {
      map.FindOrInsert(U128{base + k, 0}, round, &inserted);
      ASSERT_TRUE(inserted);
    }
    const uint64_t prev = (round - 1) * 10000;
    for (uint64_t k = 0; k < 15; ++k) {
      const uint64_t* v = map.FindOrInsert(U128{prev + k, 0}, round, &inserted);
      ASSERT_TRUE(inserted) << "round " << round << " key " << prev + k;
      ASSERT_EQ(*v, round);
    }
    EXPECT_GT(map.slot_count(), slots);
    EXPECT_EQ(map.size(), fresh + 15);
    for (uint64_t k = 15; k < 30; ++k) {
      ASSERT_EQ(map.Find(U128{prev + k, 0}), nullptr)
          << "round " << round << " key " << prev + k;
    }
    for (uint64_t k = 0; k < fresh; ++k) {
      const uint64_t* v = map.Find(U128{base + k, 0});
      ASSERT_NE(v, nullptr);
      ASSERT_EQ(*v, round);
    }
  }
}

TEST(FlatGroupMapTest, ReserveRoundsUpToPowerOfTwo) {
  FlatGroupMap map;
  map.Reserve(300);
  EXPECT_EQ(map.slot_count(), 1024u);  // 300*2 -> 600 -> 1024.
  map.Reserve(5);
  EXPECT_EQ(map.slot_count(), 1024u);  // Never shrinks.
}

/// `rel`'s rows in row order.
std::vector<std::vector<uint64_t>> Rows(const Relation& rel) {
  std::vector<std::vector<uint64_t>> out;
  for (uint64_t r = 0; r < rel.size(); ++r) {
    TupleRef row = rel.Row(r);
    out.emplace_back(row.data, row.data + row.arity);
  }
  return out;
}

// --- Removal by fill from the tail: property tests ---------------------
// Each test removes random ascending ids, highest first, and moves the last
// row into each hole (Relation::RemoveRows). The patched structure must
// equal a fresh build over the survivors: the same matches per key, every
// survivor found under its new id, and no entry left for a removed row.

/// Ascending distinct ids below `n` in one of the shapes the removal must
/// handle: a random share, only the tail row, every row, or a random run
/// ending at the tail.
std::vector<uint64_t> PickIds(Rng& rng, uint64_t n, uint64_t shape) {
  std::vector<uint64_t> ids;
  if (n == 0) return ids;
  switch (shape % 4) {
    case 0: {
      const uint64_t share = 1 + rng.Uniform(60);  // Percent.
      for (uint64_t r = 0; r < n; ++r) {
        if (rng.Uniform(100) < share) ids.push_back(r);
      }
      break;
    }
    case 1:
      ids.push_back(n - 1);
      break;
    case 2:
      for (uint64_t r = 0; r < n; ++r) ids.push_back(r);
      break;
    case 3:
      for (uint64_t r = rng.Uniform(n); r < n; ++r) {
        if (rng.Uniform(2) == 0 || r + 1 == n) ids.push_back(r);
      }
      break;
  }
  return ids;
}

/// The survivors' layout RemoveRows must produce: `rows` with each id,
/// highest first, overwritten by the last row.
std::vector<std::vector<uint64_t>> FillFromTail(
    std::vector<std::vector<uint64_t>> rows, const std::vector<uint64_t>& ids) {
  for (size_t i = ids.size(); i-- > 0;) {
    rows[ids[i]] = rows.back();
    rows.pop_back();
  }
  return rows;
}

/// A relation of `n` two-column rows: column 0 is a hub key (0) for about
/// half the rows and otherwise one of 8 keys, column 1 one of 4 values, so
/// keys chain long and rows repeat.
Relation HubRows(Rng& rng, uint64_t n) {
  Relation rel("r", Schema::Ints(2));
  for (uint64_t r = 0; r < n; ++r) {
    rel.Append({rng.Uniform(2) == 0 ? 0 : rng.Uniform(8), rng.Uniform(4)});
  }
  return rel;
}

/// Row ids matching each key of columns 0 and 1, sorted, over keys < 8.
std::vector<std::vector<uint64_t>> MatchesPerKey(const ChainedIndex& index) {
  std::vector<std::vector<uint64_t>> out(8);
  for (uint64_t k = 0; k < 8; ++k) {
    index.ForEachMatch(k, [&](uint64_t row) {
      out[k].push_back(row);
      return true;
    });
    std::sort(out[k].begin(), out[k].end());
  }
  return out;
}

TEST(FillFromTailTest, RelationMovesTheTailIntoEachHole) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    Relation rel = HubRows(rng, rng.Uniform(40));
    const auto before = Rows(rel);
    const auto ids = PickIds(rng, rel.size(), seed);
    const uint64_t* address = rel.raw().data();
    rel.RemoveRows(ids);
    EXPECT_EQ(Rows(rel), FillFromTail(before, ids)) << "seed " << seed;
    if (!ids.empty() && !rel.empty()) {
      EXPECT_EQ(rel.raw().data(), address);
    }
  }
}

TEST(FillFromTailTest, HashIndexEqualsAFreshBuild) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Relation rel = HubRows(rng, rng.Uniform(300));
    for (uint32_t col : {0u, 1u}) {
      Relation copy = rel;
      HashIndex index;
      index.Build(copy, col);
      const auto ids = PickIds(rng, copy.size(), seed + col);
      for (size_t i = ids.size(); i-- > 0;) index.RemoveRow(ids[i]);
      copy.RemoveRows(ids);
      HashIndex fresh;
      fresh.Build(copy, col);
      EXPECT_TRUE(index.Matches(copy, col, copy.size()));
      EXPECT_EQ(index.size(), copy.size());
      EXPECT_EQ(MatchesPerKey(index), MatchesPerKey(fresh));
      // The patched index keeps growing like a built one.
      copy.Append({0, 1});
      index.Append(copy, col, copy.size() - 1);
      EXPECT_TRUE(index.Matches(copy, col, copy.size()));
    }
  }
}

TEST(FillFromTailTest, HashIndexRekeyMovesTheRowToItsNewChain) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    Rng rng(seed);
    Relation rel = HubRows(rng, 1 + rng.Uniform(100));
    HashIndex index;
    index.Build(rel, 0);
    for (int k = 0; k < 20; ++k) {
      const uint64_t row = rng.Uniform(rel.size());
      const uint64_t next[] = {rng.Uniform(8), rel.Row(row)[1]};
      index.Rekey(row, next[0]);
      rel.SetRow(row, TupleRef{next, 2});
    }
    HashIndex fresh;
    fresh.Build(rel, 0);
    EXPECT_TRUE(index.Matches(rel, 0, rel.size())) << "seed " << seed;
    EXPECT_EQ(MatchesPerKey(index), MatchesPerKey(fresh)) << "seed " << seed;
  }
}

TEST(FillFromTailTest, DynIndexEqualsAFreshBuild) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Relation rel = HubRows(rng, rng.Uniform(300));
    DynIndex index;
    for (uint64_t r = 0; r < rel.size(); ++r) index.Insert(rel.Row(r)[0]);
    const auto ids = PickIds(rng, rel.size(), seed);
    for (size_t i = ids.size(); i-- > 0;) index.RemoveRow(ids[i]);
    rel.RemoveRows(ids);
    DynIndex fresh;
    for (uint64_t r = 0; r < rel.size(); ++r) fresh.Insert(rel.Row(r)[0]);
    EXPECT_TRUE(index.Matches(rel, 0, rel.size()));
    EXPECT_EQ(MatchesPerKey(index), MatchesPerKey(fresh));
  }
}

TEST(FillFromTailTest, FlatTupleSetErasesAcrossTheTableEnd) {
  // Hashes 61..66 home every entry in a run that starts 3 slots before the
  // end of the 64-slot table and wraps past it, so the backward shift
  // crosses the end in both directions.
  const auto hash_of = [](TupleRef row) { return 61 + row[0] % 6; };
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Relation rel("r", Schema::Ints(2));
    FlatTupleSet set(&rel);
    const uint64_t n = rng.Uniform(36);  // Below the 60 % growth point.
    while (rel.size() < n) {
      const uint64_t row[] = {rng.Uniform(12), rng.Uniform(12)};
      const TupleRef ref{row, 2};
      if (set.Find(hash_of(ref), ref) != FlatTupleSet::kNotFound) continue;
      set.Insert(hash_of(ref), rel.Append(ref));
    }
    ASSERT_EQ(set.slot_count(), 64u);
    const auto before = Rows(rel);
    const auto ids = PickIds(rng, n, seed);
    for (size_t i = ids.size(); i-- > 0;) {
      const uint64_t last = rel.size() - 1;
      set.Erase(hash_of(rel.Row(ids[i])), ids[i]);
      if (ids[i] != last) set.Renumber(hash_of(rel.Row(last)), last, ids[i]);
      rel.RemoveRow(ids[i]);
    }
    EXPECT_EQ(set.size(), rel.size());
    uint64_t entries = 0;
    set.ForEachEntry([&](uint64_t hash, uint64_t row) {
      ++entries;
      ASSERT_LT(row, rel.size());
      EXPECT_EQ(hash, hash_of(rel.Row(row)));
    });
    EXPECT_EQ(entries, rel.size());
    for (uint64_t r = 0; r < rel.size(); ++r) {
      EXPECT_EQ(set.Lookup(hash_of(rel.Row(r)), rel.Row(r)), r);
    }
    // The removed tuples are gone (duplicates cannot be stored).
    const auto survivors = Rows(rel);
    for (const auto& row : before) {
      const TupleRef ref{row.data(), 2};
      const bool kept =
          std::find(survivors.begin(), survivors.end(), row) !=
          survivors.end();
      EXPECT_EQ(set.Lookup(hash_of(ref), ref) != FlatTupleSet::kNotFound,
                kept);
    }
  }
}

TEST(FillFromTailTest, FlatGroupMapErasesAcrossTheTableEndKeepingStamps) {
  // Keys chosen to home in the last 4 of 64 slots, so every probe run
  // wraps. Each value is a row id with a stamp in the high word, as in a
  // min/max partition; the renumber keeps the stamp.
  std::vector<U128> keys;
  for (uint64_t k = 0; keys.size() < 36; ++k) {
    if ((HashCombine(k, 0) & 63) >= 60) keys.push_back(U128{k, 0});
  }
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const uint64_t n = rng.Uniform(keys.size() + 1);
    FlatGroupMap map;
    std::vector<U128> row_key(keys.begin(), keys.begin() + n);
    std::vector<uint64_t> stamp(n);
    for (uint64_t r = 0; r < n; ++r) {
      stamp[r] = rng.Uniform(1000) << 32;
      bool inserted = false;
      map.FindOrInsert(row_key[r], r | stamp[r], &inserted);
      ASSERT_TRUE(inserted);
    }
    ASSERT_EQ(map.slot_count(), 64u);
    const auto ids = PickIds(rng, n, seed);
    std::vector<U128> removed;
    for (size_t i = ids.size(); i-- > 0;) {
      const uint64_t dead = ids[i];
      const uint64_t last = row_key.size() - 1;
      removed.push_back(row_key[dead]);
      map.Erase(row_key[dead]);
      if (dead != last) {
        uint64_t* slot = map.Find(row_key[last]);
        ASSERT_NE(slot, nullptr);
        *slot = (*slot & ~0xffffffffULL) | dead;
        row_key[dead] = row_key[last];
        stamp[dead] = stamp[last];
      }
      row_key.pop_back();
      stamp.pop_back();
    }
    EXPECT_EQ(map.size(), row_key.size());
    uint64_t entries = 0;
    map.ForEachEntry([&](const U128&, uint64_t) { ++entries; });
    EXPECT_EQ(entries, row_key.size());
    for (uint64_t r = 0; r < row_key.size(); ++r) {
      const uint64_t* slot = map.Find(row_key[r]);
      ASSERT_NE(slot, nullptr);
      EXPECT_EQ(*slot, r | stamp[r]);
    }
    for (const U128& key : removed) EXPECT_EQ(map.Find(key), nullptr);
  }
}

// --- Catalog -----------------------------------------------------------

TEST(CatalogTest, CreateFindPut) {
  Catalog catalog;
  auto created = catalog.Create("edges", Schema::Ints(2));
  ASSERT_TRUE(created.ok());
  created.value()->Append({1, 2});
  EXPECT_EQ(catalog.Find("edges")->size(), 1u);
  EXPECT_EQ(catalog.Find("missing"), nullptr);
  EXPECT_FALSE(catalog.Create("edges", Schema::Ints(2)).ok());

  Relation replacement("edges", Schema::Ints(2));
  replacement.Append({3, 4});
  replacement.Append({5, 6});
  catalog.Put(std::move(replacement));
  EXPECT_EQ(catalog.Find("edges")->size(), 2u);
  EXPECT_EQ(catalog.Names().size(), 1u);
}


// --- Update-batch helpers (NetOutBatch / ApplyDeltasToCatalog) ---

ResolvedUpdateOp Op(bool insert, const std::string& rel,
                    std::vector<uint64_t> row) {
  ResolvedUpdateOp op;
  op.is_insert = insert;
  op.relation = rel;
  op.row = std::move(row);
  return op;
}

void PutArc(Catalog* catalog,
            std::initializer_list<std::vector<uint64_t>> rows) {
  Relation arc("arc", Schema::Ints(2));
  for (const auto& row : rows) {
    arc.Append(TupleRef{row.data(), static_cast<uint32_t>(row.size())});
  }
  catalog->Put(std::move(arc));
}

TEST(ResolveUpdateBatchTest, RejectsOutOfRangeInts) {
  // strtoll clamps to INT64_MAX/MIN on overflow; an update must reject the
  // token instead of inserting or deleting the clamped value.
  Catalog catalog;
  PutArc(&catalog, {{1, 2}});
  StringDict dict;
  for (const char* script : {"+ arc 99999999999999999999 1\n",
                             "- arc 1 -99999999999999999999\n"}) {
    auto parsed = ParseUpdateScript(script);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    auto resolved =
        ResolveUpdateBatch(parsed.value().batches[0], catalog, &dict);
    EXPECT_FALSE(resolved.ok()) << script;
    EXPECT_EQ(resolved.status().code(), StatusCode::kParseError) << script;
  }
  auto parsed =
      ParseUpdateScript("+ arc 9223372036854775807 -9223372036854775808\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto resolved = ResolveUpdateBatch(parsed.value().batches[0], catalog, &dict);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(IntFromWord(resolved.value().ops[0].row[0]), INT64_MAX);
  EXPECT_EQ(IntFromWord(resolved.value().ops[0].row[1]), INT64_MIN);
}

TEST(ResolveUpdateBatchTest, DoublesFollowTheCheckedRule) {
  // Update values go through the same field parser as fact files: a double
  // must be a finite decimal number spelled out in full. Bare strtod took
  // every token below.
  Catalog catalog;
  catalog.Put(Relation("w", Schema({{"v", ColumnType::kDouble}})));
  StringDict dict;
  for (const char* bad : {"nan", "inf", "-inf", "+1.5", "0x1p3", "1e400",
                          "1.5x", " 1.5"}) {
    UpdateBatch batch;
    batch.ops.push_back(UpdateOp{true, "w", {bad}});
    auto resolved = ResolveUpdateBatch(batch, catalog, &dict);
    EXPECT_FALSE(resolved.ok()) << bad;
    EXPECT_EQ(resolved.status().code(), StatusCode::kParseError) << bad;
    EXPECT_NE(resolved.status().message().find("bad double"),
              std::string::npos)
        << resolved.status().ToString();
  }
  UpdateBatch batch;
  for (const char* good : {"1.5", "-.25", "3", "1e-3", "5."}) {
    batch.ops.push_back(UpdateOp{true, "w", {good}});
  }
  auto resolved = ResolveUpdateBatch(batch, catalog, &dict);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const std::vector<double> want = {1.5, -0.25, 3, 1e-3, 5};
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(DoubleFromWord(resolved.value().ops[i].row[0]), want[i]);
  }
}

TEST(NetOutBatchTest, TupleStoredKTimesYieldsKRemovals) {
  Catalog catalog;
  PutArc(&catalog, {{1, 2}, {3, 4}, {1, 2}, {5, 6}, {1, 2}});
  ResolvedUpdateBatch batch;
  batch.ops.push_back(Op(false, "arc", {1, 2}));
  auto deltas = NetOutBatch(batch, catalog);
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  ASSERT_EQ(deltas.value().size(), 1u);
  const RelationDelta& d = deltas.value()[0];
  EXPECT_EQ(d.relation, "arc");
  EXPECT_TRUE(d.added.empty());
  const std::vector<std::vector<uint64_t>> three(3, {1, 2});
  EXPECT_EQ(d.removed, three);

  Relation* before = catalog.Find("arc");
  ASSERT_TRUE(ApplyDeltasToCatalog(deltas.value(), &catalog).ok());
  EXPECT_EQ(catalog.Find("arc"), before);
  // Rows 4, 2 and 0 go, highest first: row 4 is the tail, then (5, 6)
  // fills row 2 and moves on into row 0.
  const std::vector<std::vector<uint64_t>> survivors = {{5, 6}, {3, 4}};
  EXPECT_EQ(Rows(*catalog.Find("arc")), survivors);
}

/// A RowFinder over plain scans that counts its calls in `finds`, records
/// the ids its hook saw in `removed`, and declines unless `answer`.
RowFinder CountingFinder(bool answer, int* finds,
                         std::vector<uint64_t>* removed) {
  RowFinder finder;
  finder.find = [answer, finds](const std::string& name, const Relation& rel,
                                TupleRef row, std::vector<uint64_t>* ids) {
    EXPECT_EQ(name, "arc");
    ++*finds;
    if (!answer) return false;
    for (uint64_t r = rel.size(); r-- > 0;) {
      if (rel.Row(r) == row) ids->push_back(r);
    }
    return true;
  };
  finder.will_remove = [removed](const Relation&,
                                 const std::vector<uint64_t>& ids) {
    *removed = ids;
  };
  return finder;
}

TEST(NetOutBatchTest, RowFinderReplacesTheScan) {
  Catalog catalog;
  PutArc(&catalog, {{1, 2}, {3, 4}, {1, 2}});
  ResolvedUpdateBatch batch;
  batch.ops.push_back(Op(false, "arc", {1, 2}));
  batch.ops.push_back(Op(true, "arc", {5, 6}));
  batch.ops.push_back(Op(true, "arc", {3, 4}));
  auto scanned = NetOutBatch(batch, catalog);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  ASSERT_EQ(scanned.value().size(), 1u);

  // A finder answering for every touched tuple is asked once per tuple,
  // the number of ids it returns decides the delta, and nothing is
  // scanned.
  int finds = 0;
  std::vector<uint64_t> removed;
  RowFinder finder = CountingFinder(/*answer=*/true, &finds, &removed);
  auto found = NetOutBatch(batch, catalog, &finder);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(finds, 3);
  EXPECT_EQ(finder.rows_scanned, 0u);
  ASSERT_EQ(found.value().size(), 1u);
  EXPECT_EQ(found.value()[0].added, scanned.value()[0].added);
  EXPECT_EQ(found.value()[0].removed, scanned.value()[0].removed);
  EXPECT_EQ(found.value()[0].removed.size(), 2u);

  // One that declines leaves the relation to one counted scan.
  RowFinder decline = CountingFinder(/*answer=*/false, &finds, &removed);
  auto fallback = NetOutBatch(batch, catalog, &decline);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(decline.rows_scanned, 3u);
  ASSERT_EQ(fallback.value().size(), 1u);
  EXPECT_EQ(fallback.value()[0].added, scanned.value()[0].added);
  EXPECT_EQ(fallback.value()[0].removed, scanned.value()[0].removed);
}

TEST(ApplyDeltasTest, RowFinderPicksTheRemovedCopies) {
  Catalog catalog;
  PutArc(&catalog, {{1, 2}, {3, 4}, {1, 2}, {5, 6}});
  RelationDelta d;
  d.relation = "arc";
  d.removed = {{1, 2}, {5, 6}};  // One of the two (1, 2) copies.
  int finds = 0;
  std::vector<uint64_t> removed;
  RowFinder finder = CountingFinder(/*answer=*/true, &finds, &removed);
  ASSERT_TRUE(ApplyDeltasToCatalog({d}, &catalog, &finder).ok());
  EXPECT_EQ(finds, 2);
  EXPECT_EQ(finder.rows_scanned, 0u);
  // The finder lists row 2 before row 0, so row 2 goes; its hook saw the
  // ids in ascending order before the rows moved.
  EXPECT_EQ(removed, (std::vector<uint64_t>{2, 3}));
  const std::vector<std::vector<uint64_t>> survivors = {{1, 2}, {3, 4}};
  EXPECT_EQ(Rows(*catalog.Find("arc")), survivors);

  // Declined: one counted scan takes the first copies in row order.
  PutArc(&catalog, {{1, 2}, {3, 4}, {1, 2}, {5, 6}});
  RowFinder decline = CountingFinder(/*answer=*/false, &finds, &removed);
  ASSERT_TRUE(ApplyDeltasToCatalog({d}, &catalog, &decline).ok());
  EXPECT_EQ(decline.rows_scanned, 4u);
  EXPECT_EQ(removed, (std::vector<uint64_t>{0, 3}));
  const std::vector<std::vector<uint64_t>> scanned = {{1, 2}, {3, 4}};
  EXPECT_EQ(Rows(*catalog.Find("arc")), scanned);
}

TEST(NetOutBatchTest, InsertThenDeleteInOneBatchCancels) {
  Catalog catalog;
  PutArc(&catalog, {{1, 2}});
  ResolvedUpdateBatch batch;
  batch.ops.push_back(Op(true, "arc", {7, 8}));
  batch.ops.push_back(Op(false, "arc", {7, 8}));
  // Delete-then-reinsert of a stored tuple cancels too.
  batch.ops.push_back(Op(false, "arc", {1, 2}));
  batch.ops.push_back(Op(true, "arc", {1, 2}));
  auto deltas = NetOutBatch(batch, catalog);
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  EXPECT_TRUE(deltas.value().empty());
}

TEST(NetOutBatchTest, DeletingAnAbsentRowIsANoOp) {
  Catalog catalog;
  PutArc(&catalog, {{1, 2}, {2, 3}});
  ResolvedUpdateBatch batch;
  batch.ops.push_back(Op(false, "arc", {9, 9}));
  // Inserting a present tuple is a no-op as well.
  batch.ops.push_back(Op(true, "arc", {2, 3}));
  auto deltas = NetOutBatch(batch, catalog);
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  EXPECT_TRUE(deltas.value().empty());

  RelationDelta absent;
  absent.relation = "arc";
  absent.removed.push_back({9, 9});
  ASSERT_TRUE(ApplyDeltasToCatalog({absent}, &catalog).ok());
  const std::vector<std::vector<uint64_t>> unchanged = {{1, 2}, {2, 3}};
  EXPECT_EQ(Rows(*catalog.Find("arc")), unchanged);
}

TEST(NetOutBatchTest, DeltasInTouchOrderPerRelationSortedByName) {
  Catalog catalog;
  PutArc(&catalog, {{1, 2}, {2, 3}});
  Relation node("node", Schema::Ints(1));
  node.Append({4});
  catalog.Put(std::move(node));
  ResolvedUpdateBatch batch;
  batch.ops.push_back(Op(true, "node", {5}));
  batch.ops.push_back(Op(true, "arc", {9, 1}));
  batch.ops.push_back(Op(false, "arc", {2, 3}));
  batch.ops.push_back(Op(true, "arc", {0, 1}));
  batch.ops.push_back(Op(false, "node", {4}));
  batch.ops.push_back(Op(false, "arc", {1, 2}));
  auto deltas = NetOutBatch(batch, catalog);
  ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
  ASSERT_EQ(deltas.value().size(), 2u);
  const RelationDelta& arc = deltas.value()[0];
  EXPECT_EQ(arc.relation, "arc");
  const std::vector<std::vector<uint64_t>> added = {{9, 1}, {0, 1}};
  const std::vector<std::vector<uint64_t>> removed = {{2, 3}, {1, 2}};
  EXPECT_EQ(arc.added, added);
  EXPECT_EQ(arc.removed, removed);
  EXPECT_EQ(deltas.value()[1].relation, "node");

  ResolvedUpdateBatch unknown;
  unknown.ops.push_back(Op(true, "missing", {1}));
  EXPECT_FALSE(NetOutBatch(unknown, catalog).ok());
}

TEST(ApplyDeltasTest, RemovalFillsHolesFromTheTailAndKeepsAddress) {
  Catalog catalog;
  PutArc(&catalog, {{5, 1}, {1, 2}, {4, 4}, {3, 0}, {1, 2}, {2, 9}, {0, 7}});
  Relation* before = catalog.Find("arc");
  RelationDelta d;
  d.relation = "arc";
  d.removed = {{4, 4}, {1, 2}, {0, 7}};  // One of the two (1, 2) copies.
  d.added = {{8, 8}};
  ASSERT_TRUE(ApplyDeltasToCatalog({d}, &catalog).ok());
  EXPECT_EQ(catalog.Find("arc"), before);
  // The scan picks rows 1, 2 and 6. Highest first: row 6 is the tail;
  // (2, 9) fills row 2, then the second (1, 2) fills row 1. Every other
  // row keeps its id, and the insert appends.
  const std::vector<std::vector<uint64_t>> expected = {
      {5, 1}, {1, 2}, {2, 9}, {3, 0}, {8, 8}};
  EXPECT_EQ(Rows(*before), expected);

  RelationDelta missing;
  missing.relation = "missing";
  missing.added = {{1, 1}};
  EXPECT_FALSE(ApplyDeltasToCatalog({missing}, &catalog).ok());
}

TEST(ApplyDeltasTest, NetOutThenApplyMatchesSetSemantics) {
  // Randomized: the applied catalog equals the op-by-op set model.
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    Catalog catalog;
    Relation arc("arc", Schema::Ints(2));
    std::set<std::vector<uint64_t>> model;
    for (int i = 0; i < 40; ++i) {
      const std::vector<uint64_t> row = {rng.Uniform(6), rng.Uniform(6)};
      arc.Append(TupleRef{row.data(), 2});
      model.insert(row);
    }
    catalog.Put(std::move(arc));
    ResolvedUpdateBatch batch;
    for (int i = 0; i < 20; ++i) {
      const bool insert = rng.Uniform(2) == 0;
      std::vector<uint64_t> row = {rng.Uniform(7), rng.Uniform(7)};
      if (insert) {
        model.insert(row);
      } else {
        model.erase(row);
      }
      batch.ops.push_back(Op(insert, "arc", std::move(row)));
    }
    auto deltas = NetOutBatch(batch, catalog);
    ASSERT_TRUE(deltas.ok()) << deltas.status().ToString();
    ASSERT_TRUE(ApplyDeltasToCatalog(deltas.value(), &catalog).ok());
    const auto rows = Rows(*catalog.Find("arc"));
    EXPECT_EQ(std::set<std::vector<uint64_t>>(rows.begin(), rows.end()),
              model)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace dcdatalog
