#include "sim/event_engine.hpp"

#include <algorithm>
#include <cstdlib>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace lp::sim {

namespace {

/// Largest double that converts to uint64 without overflow headroom issues;
/// anything at or beyond (including +inf and NaN quotients) is clamped to
/// one shared "far future" virtual bucket so ordering still falls back to
/// the exact (when, seq) comparison.
constexpr double kVbClamp = 9.0e18;
constexpr std::uint64_t kFarVb = 9'000'000'000'000'000'000ULL;

/// Strict (when, seq) order — the engine's one comparison.
constexpr bool precedes(double when_a, std::uint64_t seq_a, double when_b,
                        std::uint64_t seq_b) {
  return when_a < when_b || (when_a == when_b && seq_a < seq_b);
}

constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// Storage for the slab and the bucket heads.  A `huge` request is a 2 MiB-
/// aligned block hinted for transparent hugepages on Linux: the slab and
/// bucket arrays are randomly accessed, and with 4 KiB pages a
/// multi-hundred-MiB slab blows the TLB and every node visit pays a page
/// walk on top of the cache miss.  The hint makes the first touch zero a
/// whole 2 MiB page, so small engines (one per simulator run) ask for
/// cache-line-aligned memory instead and fault in only the pages they use.
void* engine_alloc(std::size_t bytes, bool huge) {
  const std::size_t align = huge ? kHugePage : std::size_t{64};
  const std::size_t rounded = (bytes + align - 1) & ~(align - 1);
  void* p = std::aligned_alloc(align, rounded);
  if (p == nullptr) throw std::bad_alloc{};
#ifdef __linux__
  if (huge) (void)::madvise(p, rounded, MADV_HUGEPAGE);
#endif
  return p;
}

/// Bucket heads go on hugepages only once the array itself spans one.
std::uint32_t* alloc_heads(std::size_t nbuckets) {
  const std::size_t bytes = nbuckets * sizeof(std::uint32_t);
  return static_cast<std::uint32_t*>(engine_alloc(bytes, bytes >= kHugePage));
}

}  // namespace

EventEngine::EventEngine() {
  nbuckets_ = kMinBuckets;
  heads_ = alloc_heads(nbuckets_);
  std::fill_n(heads_, nbuckets_, kNil);
}

EventEngine::~EventEngine() {
  // Destroy pending handlers (free-listed slots hold no live node).
  for (std::size_t b = 0; b < nbuckets_; ++b) {
    for (std::uint32_t i = heads_[b]; i != kNil;) {
      Node* n = at(i);
      const std::uint32_t next = n->next;
      n->~Node();
      i = next;
    }
  }
  std::free(heads_);
  for (Slot* chunk : chunks_) std::free(chunk);
}

std::uint32_t EventEngine::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  if ((slab_used_ & kChunkMask) == 0) {
    // The first chunk serves every small engine; hugepages pay off from the
    // second, once the slab spans megabytes.
    chunks_.push_back(
        static_cast<Slot*>(engine_alloc(kChunkSize * sizeof(Slot), !chunks_.empty())));
  }
  return slab_used_++;
}

std::uint64_t EventEngine::virtual_bucket(double when) const {
  const double q = std::max(when, 0.0) * inv_width_;
  return q < kVbClamp ? static_cast<std::uint64_t>(q) : kFarVb;
}

void EventEngine::schedule_at(TimePoint when, Callback fn) {
  insert(when.to_seconds(), std::move(fn));
}

void EventEngine::schedule_in(Duration delay, Callback fn) {
  insert(now_s_ + delay.to_seconds(), std::move(fn));
}

void EventEngine::insert(double when, InlineHandler fn) {
  maybe_grow();
  const std::uint64_t vb = virtual_bucket(when);
  const std::uint32_t idx = alloc_slot();
  std::uint32_t& head = heads_[vb & (nbuckets_ - 1)];
  // Keep a located minimum current: the new event (the latest seq) takes
  // over only if it is strictly earlier, and it becomes its bucket's head.
  if (min_idx_ != kNil) {
    if (when < at(min_idx_)->when) {
      min_idx_ = idx;
      min_prev_ = kNil;
    } else if (head == min_idx_) {
      min_prev_ = idx;
    }
  }
  ::new (static_cast<void*>(chunks_[idx >> kChunkShift][idx & kChunkMask].raw))
      Node{when, next_seq_++, head, std::move(fn)};
  head = idx;
  ++size_;
  // An event due before the day cursor would be missed by the forward scan:
  // rewind to its day.  (Equal days need nothing — the scan covers the whole
  // current day every time.)
  if (vb < cur_vb_) cur_vb_ = vb;
}

bool EventEngine::find_min(std::uint32_t* idx, std::uint32_t* prev) {
  if (size_ == 0) return false;
  if (min_idx_ != kNil) {
    *idx = min_idx_;
    *prev = min_prev_;
    return true;
  }
  const std::size_t mask = nbuckets_ - 1;
  std::size_t scanned = 0;
  // Bound the empty-day scan: after a calendar year (or 4096 days, whichever
  // is smaller) with no event due, every pending event is far away — find it
  // directly instead of walking day by day.
  const std::size_t scan_limit = std::min(nbuckets_, std::size_t{4096});
  while (true) {
#if defined(__GNUC__) || defined(__clang__)
    // The next day's head node is the likely next dispatch; fetching it now
    // overlaps its (random-address) miss with this day's scan + handler.
    if (const std::uint32_t h = heads_[(cur_vb_ + 1) & mask]; h != kNil) {
      __builtin_prefetch(at(h));
    }
#endif
    bool found = false;
    std::uint32_t best = kNil;
    std::uint32_t best_prev = kNil;
    double best_when = 0.0;
    std::uint64_t best_seq = 0;
    std::uint32_t p = kNil;
    for (std::uint32_t i = heads_[cur_vb_ & mask]; i != kNil;) {
      const Node* n = at(i);
      // Entries of a later calendar year share the bucket; skip them.
      if (virtual_bucket(n->when) == cur_vb_ &&
          (!found || precedes(n->when, n->seq, best_when, best_seq))) {
        found = true;
        best = i;
        best_prev = p;
        best_when = n->when;
        best_seq = n->seq;
      }
      p = i;
      i = n->next;
    }
    if (found) {
      *idx = min_idx_ = best;
      *prev = min_prev_ = best_prev;
      return true;
    }
    ++cur_vb_;
    if (++scanned >= scan_limit) {
      locate_min_day();
      scanned = 0;
    }
  }
}

void EventEngine::locate_min_day() {
  const Node* best = nullptr;
  for (std::size_t b = 0; b < nbuckets_; ++b) {
    for (std::uint32_t i = heads_[b]; i != kNil;) {
      const Node* n = at(i);
      if (best == nullptr || precedes(n->when, n->seq, best->when, best->seq)) {
        best = n;
      }
      i = n->next;
    }
  }
  if (best != nullptr) cur_vb_ = virtual_bucket(best->when);
}

void EventEngine::resize(std::size_t nbuckets) {
  nbuckets = std::clamp(nbuckets, kMinBuckets, kMaxBuckets);
  min_idx_ = kNil;  // every list is rebuilt
  // Collect every pending node index (scratch_ is reused across resizes).
  scratch_.clear();
  scratch_.reserve(size_);
  for (std::size_t b = 0; b < nbuckets_; ++b) {
    for (std::uint32_t i = heads_[b]; i != kNil; i = at(i)->next) {
      scratch_.push_back(i);
    }
  }

  // Re-derive the bucket width from a sample of pending timestamps.  Two
  // constraints pull in opposite directions:
  //   * occupancy — about one event per bucket-day keeps the day scan O(1),
  //     so width tracks the inter-event gap (the stride-sampled median gap
  //     spans `stride` true gaps; scale it back down).  The median is robust
  //     against one far-out timeout stretching the estimate.
  //   * coverage — a day cannot be narrower than span/nbuckets, or the
  //     pending window wraps the calendar many times over and every bucket
  //     scan wades through entries of later years.
  if (scratch_.size() >= 2) {
    constexpr std::size_t kSample = 256;
    std::vector<double> whens;
    const std::size_t stride = std::max<std::size_t>(1, scratch_.size() / kSample);
    for (std::size_t i = 0; i < scratch_.size(); i += stride) {
      whens.push_back(at(scratch_[i])->when);
    }
    std::sort(whens.begin(), whens.end());
    std::vector<double> gaps;
    gaps.reserve(whens.size());
    for (std::size_t i = 1; i < whens.size(); ++i) {
      const double g = whens[i] - whens[i - 1];
      if (g > 0.0) gaps.push_back(g);
    }
    if (!gaps.empty()) {
      std::nth_element(gaps.begin(),
                       gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2),
                       gaps.end());
      const double gap_est = gaps[gaps.size() / 2] / static_cast<double>(stride);
      const double span = whens.back() - whens.front();
      const double coverage = span / static_cast<double>(nbuckets);
      width_ = std::max({gap_est, coverage, 1e-12});
      inv_width_ = 1.0 / width_;
    }
    // All-equal timestamps: keep the previous width; ordering degenerates to
    // the seq tie-break inside one bucket either way.
  }

  if (nbuckets != nbuckets_) {
    std::free(heads_);
    heads_ = alloc_heads(nbuckets);
    nbuckets_ = nbuckets;
  }
  std::fill_n(heads_, nbuckets_, kNil);
  const std::size_t mask = nbuckets_ - 1;
  bool have_min = false;
  double min_when = 0.0;
  std::uint64_t min_seq = 0;
  for (const std::uint32_t idx : scratch_) {
    Node* n = at(idx);
    const std::uint64_t vb = virtual_bucket(n->when);
    std::uint32_t& head = heads_[vb & mask];
    n->next = head;
    head = idx;
    if (!have_min || precedes(n->when, n->seq, min_when, min_seq)) {
      have_min = true;
      min_when = n->when;
      min_seq = n->seq;
      cur_vb_ = vb;
    }
  }
  if (!have_min) cur_vb_ = virtual_bucket(now_s_);
}

void EventEngine::maybe_grow() {
  if (size_ + 1 > nbuckets_ * 2 && nbuckets_ < kMaxBuckets) {
    resize(nbuckets_ * 2);
  }
}

void EventEngine::maybe_shrink() {
  // The wide hysteresis band (grow at 2/bucket, shrink at 1/4 per bucket)
  // keeps a monotonic drain from rebucketing every halving.
  if (size_ < nbuckets_ / 4 && nbuckets_ > kMinBuckets) {
    resize(nbuckets_ / 2);
  }
}

void EventEngine::dispatch(std::uint32_t idx, std::uint32_t prev) {
  min_idx_ = kNil;  // before the handler can schedule
  Node* n = at(idx);
  if (prev == kNil) {
    heads_[virtual_bucket(n->when) & (nbuckets_ - 1)] = n->next;
  } else {
    at(prev)->next = n->next;
  }
  now_s_ = n->when;
  --size_;
  // Invoke in place: the node is already unlinked and its slot is not yet
  // on the free list, so reentrant scheduling (even a resize that relinks
  // every pending node) cannot touch this handler — slab chunks never move.
  n->fn();
  n->~Node();
  free_.push_back(idx);
}

template <typename Due>
std::size_t EventEngine::drain(std::size_t max_events, Due due) {
  std::size_t processed = 0;
  while (processed < max_events) {
    std::uint32_t idx = kNil;
    std::uint32_t prev = kNil;
    if (!find_min(&idx, &prev) || !due(*at(idx))) break;
    dispatch(idx, prev);
    ++processed;
    maybe_shrink();
  }
  return processed;
}

std::size_t EventEngine::run(std::size_t max_events) {
  return drain(max_events, [](const Node&) { return true; });
}

std::size_t EventEngine::run_until(TimePoint until) {
  const double deadline = until.to_seconds();
  return drain(SIZE_MAX, [deadline](const Node& n) { return n.when <= deadline; });
}

std::size_t EventEngine::advance_to(TimePoint when, std::uint64_t seq) {
  const double t = when.to_seconds();
  const std::size_t processed =
      drain(SIZE_MAX, [t, seq](const Node& n) { return precedes(n.when, n.seq, t, seq); });
  now_s_ = t;
  return processed;
}

TimePoint arm(EventEngine& engine, TimePoint from, Rng& rng, double rate,
              Duration horizon, EventEngine::Callback fn) {
  const TimePoint next = from + Duration::seconds(rng.exponential(rate));
  if (next.to_seconds() < horizon.to_seconds()) engine.schedule_at(next, std::move(fn));
  return next;
}

}  // namespace lp::sim
