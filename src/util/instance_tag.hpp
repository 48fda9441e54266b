// A process-unique tag for the current contents of an object.
//
// Caches keyed by "which topology / which model" must not key on an
// address: a destroyed object's storage can be reused by a new one with
// different contents. An InstanceTag draws a fresh value from a global
// counter whenever its owner is constructed, copied or assigned, and on
// renew() (called by owners on every mutation), so two reads of one tag
// value always describe the same contents.
#pragma once

#include <atomic>
#include <cstdint>

namespace gts::util {

class InstanceTag {
 public:
  InstanceTag() noexcept : value_(next()) {}
  InstanceTag(const InstanceTag&) noexcept : value_(next()) {}
  InstanceTag& operator=(const InstanceTag&) noexcept {
    value_ = next();
    return *this;
  }

  /// Draws a new value: the owner's contents changed.
  void renew() noexcept { value_ = next(); }
  std::uint64_t value() const noexcept { return value_; }

 private:
  static std::uint64_t next() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t value_;
};

}  // namespace gts::util
