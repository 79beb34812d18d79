#ifndef SHIELD_LSM_TABLE_CACHE_H_
#define SHIELD_LSM_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "lsm/cache.h"
#include "lsm/iterator.h"
#include "lsm/options.h"
#include "lsm/sst_reader.h"
#include "shield/file_crypto.h"

namespace shield {

/// Caches open Table readers keyed by file number. Opening an SST is
/// expensive (footer + index read, and under SHIELD a DEK resolution),
/// so readers are shared and kept hot.
class TableCache {
 public:
  TableCache(std::string dbname, const Options& options,
             const InternalKeyComparator* icmp, DataFileFactory* files,
             std::shared_ptr<Cache> block_cache, int max_open_tables);
  ~TableCache();

  /// Iterator over internal keys of the given file. If `tableptr` is
  /// non-null, also returns the underlying Table (owned by the cache,
  /// valid while the iterator lives).
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size, Table** tableptr = nullptr);

  Status Get(const ReadOptions& options, uint64_t file_number,
             uint64_t file_size, const Slice& internal_key, void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&));

  /// Batched Get against one file: requests (sorted by internal key)
  /// are answered by Table::MultiGet, which coalesces block fetches.
  /// A failure to open the table poisons every request's status.
  void MultiGet(const ReadOptions& options, uint64_t file_number,
                uint64_t file_size,
                const std::vector<TableGetRequest*>& requests);

  /// Drops the cached reader for a deleted file.
  void Evict(uint64_t file_number);

  /// Opens the reader for a file (or finds it cached) and holds it
  /// until Release. Eviction skips a held entry, so reads through the
  /// cache keep using its open file even after the file is deleted.
  Status FindTable(uint64_t file_number, uint64_t file_size,
                   Cache::Handle** handle);
  void Release(Cache::Handle* handle) { cache_->Release(handle); }

 private:
  const std::string dbname_;
  const Options options_;
  const InternalKeyComparator* icmp_;
  DataFileFactory* files_;
  std::shared_ptr<Cache> block_cache_;
  std::shared_ptr<Cache> cache_;
};

}  // namespace shield

#endif  // SHIELD_LSM_TABLE_CACHE_H_
