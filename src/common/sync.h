// Capability-annotated synchronization primitives (DESIGN.md §11). The
// only sanctioned mutex types in this codebase: wrapping the std
// primitives in annotated classes is what lets Clang Thread Safety
// Analysis prove at compile time that every GUARDED_BY field is touched
// with the right lock held — the `thread-safety` preset and the
// tools/lint.py `raw-mutex` rule together make the wrappers unbypassable.
//
// Usage mirrors the std types:
//
//   ie::Mutex mu_;
//   int value_ GUARDED_BY(mu_);
//   { MutexLock lock(mu_); ++value_; }            // exclusive
//
//   ie::SharedMutex smu_;
//   Map map_ GUARDED_BY(smu_);
//   { ReaderLock lock(smu_); map_.find(k); }      // shared read
//   { WriterLock lock(smu_); map_.emplace(...); } // exclusive write
#pragma once

#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace ie {

/// Exclusive mutex. Prefer the scoped MutexLock; the raw Lock/Unlock pair
/// exists for the rare split acquire/release and keeps the analysis exact
/// either way.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Reader/writer mutex (the Featurizer bigram cache's read-mostly path).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Scoped exclusive lock on an ie::Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped shared (read) lock on an ie::SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive (write) lock on an ie::SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterLock() RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

}  // namespace ie
