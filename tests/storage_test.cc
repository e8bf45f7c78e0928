// Unit and property tests for src/storage: schema, relation, B+-tree,
// hash index, dynamic index, flat merge structures, catalog, and the
// update-batch helpers shared by the engine and the EDB store.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/random.h"
#include "storage/btree.h"
#include "storage/catalog.h"
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

// --- B+-tree -----------------------------------------------------------

TEST(BTreeTest, EmptyTree) {
  BPlusTree<uint64_t, uint64_t> tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.LowerBound(0).AtEnd());
  EXPECT_FALSE(tree.Contains(5));
  EXPECT_EQ(tree.FindFirst(5), nullptr);
}

TEST(BTreeTest, InsertAndFind) {
  BPlusTree<uint64_t, uint64_t> tree;
  for (uint64_t i = 0; i < 1000; ++i) tree.Insert(i * 3, i);
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_TRUE(tree.Contains(999));
  EXPECT_FALSE(tree.Contains(1000));
  ASSERT_NE(tree.FindFirst(300), nullptr);
  EXPECT_EQ(*tree.FindFirst(300), 100u);
}

TEST(BTreeTest, InPlaceValueUpdate) {
  BPlusTree<uint64_t, uint64_t> tree;
  tree.Insert(5, 10);
  *tree.FindFirst(5) = 20;
  EXPECT_EQ(*tree.FindFirst(5), 20u);
}

TEST(BTreeTest, OrderedIteration) {
  BPlusTree<uint64_t, uint64_t> tree;
  Rng rng(5);
  std::multiset<uint64_t> keys;
  for (int i = 0; i < 5000; ++i) {
    uint64_t k = rng.Uniform(500);
    tree.Insert(k, i);
    keys.insert(k);
  }
  std::vector<uint64_t> seen;
  for (auto it = tree.Begin(); !it.AtEnd(); ++it) seen.push_back(it.key());
  EXPECT_EQ(seen.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(BTreeTest, PropertyMatchesMultimap) {
  // Random interleaved inserts and lookups, mirrored in std::multimap.
  BPlusTree<uint64_t, uint64_t, 8, 8> tree;  // Small fanout → deep tree.
  std::multimap<uint64_t, uint64_t> oracle;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.Uniform(3000);
    tree.Insert(k, i);
    oracle.emplace(k, i);
  }
  EXPECT_EQ(tree.size(), oracle.size());
  for (uint64_t k = 0; k < 3000; ++k) {
    std::multiset<uint64_t> expect;
    auto [lo, hi] = oracle.equal_range(k);
    for (auto it = lo; it != hi; ++it) expect.insert(it->second);
    std::multiset<uint64_t> got;
    tree.ForEachEqual(k, [&](const uint64_t& v) {
      got.insert(v);
      return true;
    });
    ASSERT_EQ(got, expect) << "key " << k;
  }
}

TEST(BTreeTest, LowerBoundSemantics) {
  BPlusTree<uint64_t, uint64_t, 8, 8> tree;
  for (uint64_t k : {10, 20, 20, 20, 30, 40}) tree.Insert(k, k);
  auto it = tree.LowerBound(15);
  EXPECT_EQ(it.key(), 20u);
  it = tree.LowerBound(20);
  EXPECT_EQ(it.key(), 20u);
  it = tree.LowerBound(41);
  EXPECT_TRUE(it.AtEnd());
}

TEST(BTreeTest, DuplicatesAcrossLeafSplits) {
  // Many duplicates of a few keys force duplicates to straddle leaves.
  BPlusTree<uint64_t, uint64_t, 4, 4> tree;
  for (int i = 0; i < 300; ++i) tree.Insert(i % 3, i);
  for (uint64_t k = 0; k < 3; ++k) {
    uint64_t count = 0;
    tree.ForEachEqual(k, [&](const uint64_t&) {
      ++count;
      return true;
    });
    EXPECT_EQ(count, 100u) << "key " << k;
  }
}

TEST(BTreeTest, U128CompositeKeys) {
  BPlusTree<U128, uint64_t> tree;
  tree.Insert(U128{1, 5}, 15);
  tree.Insert(U128{1, 7}, 17);
  tree.Insert(U128{2, 0}, 20);
  EXPECT_EQ(*tree.FindFirst(U128{1, 7}), 17u);
  EXPECT_EQ(tree.FindFirst(U128{1, 6}), nullptr);
  // Lexicographic: (1,*) before (2,*).
  auto it = tree.LowerBound(U128{1, 6});
  EXPECT_EQ(it.key().lo, 7u);
}

TEST(BTreeTest, MoveConstructorLeavesSourceUsable) {
  BPlusTree<uint64_t, uint64_t> a;
  a.Insert(1, 1);
  BPlusTree<uint64_t, uint64_t> b(std::move(a));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  a.Insert(2, 2);
  EXPECT_TRUE(a.Contains(2));
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
    index.Insert(k, i);
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
    index.Insert(k, i);
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

TEST(FlatGroupMapTest, ReserveRoundsUpToPowerOfTwo) {
  FlatGroupMap map;
  map.Reserve(300);
  EXPECT_EQ(map.slot_count(), 1024u);  // 300*2 -> 600 -> 1024.
  map.Reserve(5);
  EXPECT_EQ(map.slot_count(), 1024u);  // Never shrinks.
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

std::vector<std::vector<uint64_t>> Rows(const Relation& rel) {
  std::vector<std::vector<uint64_t>> out;
  for (uint64_t r = 0; r < rel.size(); ++r) {
    TupleRef row = rel.Row(r);
    out.emplace_back(row.data, row.data + row.arity);
  }
  return out;
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
  const std::vector<std::vector<uint64_t>> survivors = {{3, 4}, {5, 6}};
  EXPECT_EQ(Rows(*catalog.Find("arc")), survivors);
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

TEST(ApplyDeltasTest, CompactionKeepsSurvivorOrderAndAddress) {
  Catalog catalog;
  PutArc(&catalog, {{5, 1}, {1, 2}, {4, 4}, {3, 0}, {1, 2}, {2, 9}, {0, 7}});
  Relation* before = catalog.Find("arc");
  RelationDelta d;
  d.relation = "arc";
  d.removed = {{4, 4}, {1, 2}, {0, 7}};  // One of the two (1, 2) copies.
  d.added = {{8, 8}};
  ASSERT_TRUE(ApplyDeltasToCatalog({d}, &catalog).ok());
  EXPECT_EQ(catalog.Find("arc"), before);
  const std::vector<std::vector<uint64_t>> expected = {
      {5, 1}, {3, 0}, {1, 2}, {2, 9}, {8, 8}};
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
