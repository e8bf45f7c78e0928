#ifndef DCDATALOG_SERVER_EDB_STORE_H_
#define DCDATALOG_SERVER_EDB_STORE_H_

#include <atomic>
#include <cstdint>

#include "common/mutex.h"
#include "common/status.h"
#include "common/string_dict.h"
#include "common/thread_annotations.h"
#include "storage/catalog.h"
#include "storage/relation.h"
#include "storage/updates.h"

namespace dcdatalog {

/// The resident server's base EDB: one catalog of base relations plus the
/// string dictionary they were loaded with, shared by every query session.
///
/// Update discipline is copy-on-write: ApplyBatch never mutates a published
/// Relation. It clones each touched relation, applies the batch's net delta
/// to the clone (through the same ApplyDeltasToCatalog the incremental
/// engine and the oracle recomputation use, so all three paths agree on
/// set-semantics netting), and publishes the clone by replacing the catalog
/// entry. A session that pinned the previous version via SnapshotInto keeps
/// reading frozen rows for its whole evaluation — the concurrency bug this
/// class exists to prevent is an --updates stream rewriting a relation's
/// row store under a racing reader.
///
/// Thread safety: SnapshotInto/version() may race ApplyBatch freely;
/// writers are serialized on apply_mu_. The StringDict is internally
/// synchronized, so sessions may intern program constants while a batch
/// resolves update tokens.
class EdbStore {
 public:
  EdbStore() = default;

  EdbStore(const EdbStore&) = delete;
  EdbStore& operator=(const EdbStore&) = delete;

  /// Registers (or replaces) a base relation. Load-time API; safe while
  /// serving, but batch updates through ApplyBatch are what keep version()
  /// meaningful.
  void PutRelation(Relation relation);

  /// The dictionary base facts were interned with. Sessions MUST parse
  /// their programs against this dictionary — string constants only match
  /// loaded rows when both sides agree on the interned ids.
  StringDict* dict() { return &dict_; }

  /// Pins the current version of every base relation into `*catalog`
  /// (zero-copy: the session catalog shares the immutable Relation
  /// objects). Returns the store version the snapshot corresponds to —
  /// exactly: the pin and the version read are atomic against ApplyBatch,
  /// so a session's results can be diffed against an oracle reconstruction
  /// of precisely that version.
  uint64_t SnapshotInto(Catalog* catalog) const DCD_EXCLUDES(apply_mu_);

  /// Monotone counter, bumped once per applied batch.
  uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  struct ApplyResult {
    uint64_t version = 0;  // Store version after the batch.
    uint64_t relations_touched = 0;
    uint64_t rows_added = 0;
    uint64_t rows_removed = 0;
  };

  /// Applies one update batch copy-on-write and publishes the new version.
  /// On error nothing is published.
  Result<ApplyResult> ApplyBatch(const UpdateBatch& batch)
      DCD_EXCLUDES(apply_mu_);

  uint64_t RelationCount() const { return base_.Names().size(); }

 private:
  /// Serializes writers, and snapshot creation against writers (so the
  /// version a snapshot reports is exactly the content it pinned). Never
  /// held during evaluation — sessions touch it once at session start.
  mutable Mutex apply_mu_;
  Catalog base_;
  StringDict dict_;
  std::atomic<uint64_t> version_{1};
};

}  // namespace dcdatalog

#endif  // DCDATALOG_SERVER_EDB_STORE_H_
