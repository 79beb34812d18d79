#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

// Decorators that time a layer from outside, at its public seam. Each
// forwards every call unchanged and, while tracing is on, records one
// span around it (spans.h).

#include <memory>
#include <string>

#include "env/env.h"
#include "kds/kds.h"
#include "lsm/compaction_service.h"

namespace perfbench {

/// Installed as Options::env. The engine stacks its own counting,
/// tracing and (under SHIELD) cryptor layers above it, so this sees the
/// bytes that reach storage; over a RemoteEnv its time is fabric wait.
class TimedEnv final : public shield::EnvWrapper {
 public:
  explicit TimedEnv(shield::Env* target) : EnvWrapper(target) {}

  shield::Status NewSequentialFile(
      const std::string& f,
      std::unique_ptr<shield::SequentialFile>* r) override;
  shield::Status NewRandomAccessFile(
      const std::string& f,
      std::unique_ptr<shield::RandomAccessFile>* r) override;
  shield::Status NewWritableFile(
      const std::string& f, std::unique_ptr<shield::WritableFile>* r) override;
  bool FileExists(const std::string& f) override;
  shield::Status GetChildren(const std::string& dir,
                             std::vector<std::string>* r) override;
  shield::Status RemoveFile(const std::string& f) override;
  shield::Status CreateDirIfMissing(const std::string& d) override;
  shield::Status RemoveDir(const std::string& d) override;
  shield::Status GetFileSize(const std::string& f, uint64_t* size) override;
  shield::Status RenameFile(const std::string& s,
                            const std::string& t) override;
};

/// Passed as EncryptionOptions::kds around LocalKds or SimKds.
class TimedKds final : public shield::Kds {
 public:
  explicit TimedKds(std::shared_ptr<shield::Kds> target)
      : target_(std::move(target)) {}

  shield::Status CreateDek(const std::string& server_id,
                           shield::crypto::CipherKind kind,
                           shield::Dek* out) override;
  shield::Status GetDek(const std::string& server_id,
                        const shield::DekId& id, shield::Dek* out) override;
  shield::Status DeleteDek(const std::string& server_id,
                           const shield::DekId& id) override;
  shield::Status RewrapDek(const std::string& server_id,
                           const shield::DekId& id,
                           const std::string& target_server_id,
                           shield::Dek* out) override;

 private:
  std::shared_ptr<shield::Kds> target_;
};

/// Installed as Options::compaction_service around the storage-side
/// RemoteCompactionWorker.
class TimedCompactionService final : public shield::CompactionService {
 public:
  explicit TimedCompactionService(shield::CompactionService* target)
      : target_(target) {}

  shield::Status RunCompaction(const shield::CompactionJobSpec& job,
                               shield::CompactionJobResult* result) override;

 private:
  shield::CompactionService* target_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
