#ifndef TSC_UTIL_BOUNDED_HEAP_H_
#define TSC_UTIL_BOUNDED_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/kahan.h"
#include "util/logging.h"

namespace tsc {

/// Keeps the `capacity` items with the LARGEST keys seen so far, in O(log c)
/// per offer, using a min-heap on the key. This is the per-candidate-k
/// priority queue of Figure 5 of the paper in its textbook form; the
/// SVDD build uses the amortized BoundedTopSelector below.
template <typename Key, typename Value>
class BoundedTopHeap {
 public:
  struct Entry {
    Key key;
    Value value;
  };

  explicit BoundedTopHeap(std::size_t capacity) : capacity_(capacity) {
    // Cap the eager reservation: a capacity can far exceed the items
    // ever offered.
    heap_.reserve(std::min<std::size_t>(capacity, 1024));
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

  /// Smallest retained key; only meaningful when size() == capacity().
  const Key& MinKey() const {
    TSC_CHECK(!heap_.empty());
    return heap_.front().key;
  }

  /// Returns true when the item was retained (possibly evicting the current
  /// minimum). Capacity-zero heaps retain nothing.
  bool Offer(const Key& key, const Value& value) {
    if (capacity_ == 0) return false;
    if (heap_.size() < capacity_) {
      heap_.push_back(Entry{key, value});
      std::push_heap(heap_.begin(), heap_.end(), GreaterByKey());
      return true;
    }
    if (!(heap_.front().key < key)) return false;
    std::pop_heap(heap_.begin(), heap_.end(), GreaterByKey());
    heap_.back() = Entry{key, value};
    std::push_heap(heap_.begin(), heap_.end(), GreaterByKey());
    return true;
  }

  /// Sum of keys currently retained (used to credit outlier deltas against
  /// the accumulated SSE when evaluating a candidate k). Floating-point
  /// keys are summed with Kahan compensation: a queue can hold hundreds of
  /// thousands of squared errors spanning many orders of magnitude, and a
  /// naive sum loses enough precision to destabilize the k_opt pick.
  Key KeySum() const {
    if constexpr (std::is_floating_point_v<Key>) {
      KahanSum total;
      for (const Entry& e : heap_) total.Add(e.key);
      return static_cast<Key>(total.value());
    } else {
      Key total{};
      for (const Entry& e : heap_) total += e.key;
      return total;
    }
  }

  /// Extracts all retained entries, largest key first. The heap is emptied.
  std::vector<Entry> TakeSortedDescending() {
    std::vector<Entry> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return b.key < a.key;
    });
    return out;
  }

  /// Read-only access in heap order (no ordering guarantee).
  const std::vector<Entry>& entries() const { return heap_; }

 private:
  struct GreaterByKey {
    bool operator()(const Entry& a, const Entry& b) const {
      return b.key < a.key;
    }
  };

  std::size_t capacity_;
  std::vector<Entry> heap_;
};

/// Keeps a superset of the `capacity` items with the largest keys in
/// amortized O(1) per offer: offers append to a flat buffer, and when the
/// buffer reaches its slack the exact top `capacity` are kept with
/// nth_element under the key's strict total order. Offers strictly below
/// the cutoff of the last compaction are rejected outright. The buffer
/// is reserved at the compaction point, so it never holds (or allocates)
/// more than 1.25x capacity entries (plus a small floor for tiny
/// capacities). The retained set after each compaction is the exact top
/// `capacity` of everything offered, whatever the offer order.
template <typename Key, typename Value>
class BoundedTopSelector {
 public:
  struct Entry {
    Key key;
    Value value;
  };

  explicit BoundedTopSelector(std::size_t capacity)
      : capacity_(capacity),
        // Slack trades transient memory (<= 1.25x capacity retained) for
        // amortized compaction cost (~4 comparisons per appended entry).
        compact_at_(capacity + std::max<std::size_t>(capacity / 4, 1024)) {
    if (capacity_ > 0) buffer_.reserve(compact_at_);
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return buffer_.size(); }
  /// Largest number of entries the buffer has held at once.
  std::size_t peak_size() const { return peak_size_; }

  /// The capacity-th largest key as of the last compaction; valid once
  /// HasCutoff(). No key strictly below it can be among the top
  /// `capacity`.
  bool HasCutoff() const { return has_cutoff_; }
  const Key& Cutoff() const {
    TSC_CHECK(has_cutoff_);
    return cutoff_;
  }

  /// Retains the item unless it ranks below the cutoff. Capacity-zero
  /// selectors retain nothing.
  void Offer(const Key& key, const Value& value) {
    if (capacity_ == 0 || (has_cutoff_ && key < cutoff_)) return;
    buffer_.push_back(Entry{key, value});
    peak_size_ = std::max(peak_size_, buffer_.size());
    if (buffer_.size() >= compact_at_) Compact();
  }

  /// Moves the retained entries out and resets the selector to empty:
  /// the exact top `capacity` as of the last compaction plus everything
  /// admitted since, in no particular order. Always a superset of the
  /// true top `capacity`.
  std::vector<Entry> Take() {
    has_cutoff_ = false;
    return std::exchange(buffer_, {});
  }

 private:
  void Compact() {
    auto nth = buffer_.begin() + static_cast<std::ptrdiff_t>(capacity_ - 1);
    std::nth_element(
        buffer_.begin(), nth, buffer_.end(),
        [](const Entry& a, const Entry& b) { return b.key < a.key; });
    cutoff_ = nth->key;
    has_cutoff_ = true;
    buffer_.resize(capacity_);
  }

  std::size_t capacity_;
  std::size_t compact_at_;
  std::vector<Entry> buffer_;
  std::size_t peak_size_ = 0;
  Key cutoff_{};
  bool has_cutoff_ = false;
};

}  // namespace tsc

#endif  // TSC_UTIL_BOUNDED_HEAP_H_
