// CONTROL CASE — must COMPILE cleanly under -Wthread-safety[-beta]
// -Werror. Exercises every wrapper (Mutex, SharedMutex, scoped locks,
// raw Lock/Unlock) with correct discipline; if this fails, the
// harness flags would be broken and every violation "failure" below it
// meaningless.
#include "common/sync.h"

namespace {

class Guarded {
 public:
  void Increment() EXCLUDES(mu_) {
    ie::MutexLock lock(mu_);
    ++value_;
  }

  void IncrementSplit() EXCLUDES(mu_) {
    mu_.Lock();
    ++value_;
    mu_.Unlock();
  }

  int Read() EXCLUDES(mu_) {
    ie::MutexLock lock(mu_);
    return value_;
  }

  int ReadShared() EXCLUDES(smu_) {
    ie::ReaderLock lock(smu_);
    return shared_value_;
  }

  void WriteShared(int v) EXCLUDES(smu_) {
    ie::WriterLock lock(smu_);
    shared_value_ = v;
  }

 private:
  ie::Mutex mu_;
  int value_ GUARDED_BY(mu_) = 0;
  ie::SharedMutex smu_;
  int shared_value_ GUARDED_BY(smu_) = 0;
};

}  // namespace

int main() {
  Guarded g;
  g.Increment();
  g.IncrementSplit();
  g.WriteShared(2);
  return g.Read() + g.ReadShared();
}
