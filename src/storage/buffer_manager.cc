#include "storage/buffer_manager.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace bouquet {
namespace storage {

std::string EvictionPolicyName(EvictionPolicyKind kind) {
  switch (kind) {
    case EvictionPolicyKind::kNone:
      return "none";
    case EvictionPolicyKind::kLru:
      return "lru";
    case EvictionPolicyKind::k2Q:
      return "2q";
  }
  return "?";
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    bm_ = other.bm_;
    id_ = other.id_;
    data_ = other.data_;
    dirty_ = other.dirty_;
    other.bm_ = nullptr;
    other.data_ = nullptr;
    other.dirty_ = false;
  }
  return *this;
}

void PageGuard::Release() {
  if (bm_ != nullptr) {
    bm_->Unpin(id_, dirty_);
    bm_ = nullptr;
    data_ = nullptr;
    dirty_ = false;
  }
}

BufferManager::BufferManager(size_t pool_pages, EvictionPolicyKind kind)
    : pool_pages_(pool_pages == 0 ? 1 : pool_pages),
      kind_(kind),
      kin_(pool_pages_ / 4 == 0 ? 1 : pool_pages_ / 4),
      kout_(pool_pages_ / 2 == 0 ? 1 : pool_pages_ / 2) {}

BufferManager::~BufferManager() {
  MutexLock lock(&mu_);
  // NOLINTNEXTLINE(bouquet-determinism): each dirty frame writes its own page
  for (auto& [key, f] : frames_) {
    assert(f.pins == 0 && "frame still pinned at BufferManager destruction");
    if (f.dirty) WritebackLocked(key, &f);
  }
}

uint16_t BufferManager::RegisterFile(PageFile* file) {
  MutexLock lock(&mu_);
  const uint16_t id = next_file_id_++;
  files_[id] = file;
  return id;
}

void BufferManager::DropFile(uint16_t file_id) {
  MutexLock lock(&mu_);
  files_.erase(file_id);
  // NOLINTNEXTLINE(bouquet-determinism): erases by key; the order is unseen
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (static_cast<uint16_t>(it->first >> 32) == file_id) {
      assert(it->second.pins == 0 && "dropping a file with pinned frames");
      if (it->second.resident) EvictLocked(it->first);
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
  // Scrub any remaining residency/ghost entries of the file (resident pages
  // without frames are possible — accounting is decoupled from frames).
  auto scrub = [&](std::list<uint64_t>* q) {
    for (auto it = q->begin(); it != q->end();) {
      if (static_cast<uint16_t>(*it >> 32) == file_id) {
        policy_.where.erase(*it);
        it = q->erase(it);
      } else {
        ++it;
      }
    }
  };
  scrub(&policy_.lru);
  scrub(&policy_.a1in);
  scrub(&policy_.am);
  scrub(&policy_.a1out);
}

bool BufferManager::PolicyContainsLocked(uint64_t key) const {
  const auto it = policy_.where.find(key);
  return it != policy_.where.end() && it->second.first != 2;  // 2 = ghost
}

// Removes `key` from the resident policy state and syncs the physical
// layer: an unpinned frame is freed (writing back when dirty); a pinned
// frame merely loses residency and is reclaimed at its last Unpin.
void BufferManager::EvictLocked(uint64_t key) {
  stats_.evictions++;
  if (ctr_evictions_ != nullptr) ctr_evictions_->Inc();
  auto fit = frames_.find(key);
  if (fit == frames_.end()) return;  // logically resident, no frame
  Frame& f = fit->second;
  f.resident = false;
  if (f.pins == 0) {
    FreeFrameLocked(key, &f);
    frames_.erase(fit);
  }
}

void BufferManager::WritebackLocked(uint64_t key, Frame* f) {
  stats_.writebacks++;
  stats_.physical_writes++;
  if (ctr_writebacks_ != nullptr) ctr_writebacks_->Inc();
  if (ctr_writes_ != nullptr) ctr_writes_->Inc();
  const uint16_t file_id = static_cast<uint16_t>(key >> 32);
  const uint32_t page_no = static_cast<uint32_t>(key);
  auto it = files_.find(file_id);
  if (it != files_.end()) {
    // An I/O error here loses the page. There is no caller to surface the
    // Status to (eviction happens under unrelated accesses), so the error
    // is counted instead of dropped: write_errors diverging from zero tells
    // operators durable bytes are behind write traffic.
    const Status ws = it->second->WritePage(page_no, f->data.get());
    if (!ws.ok()) {
      stats_.write_errors++;
      if (ctr_write_errors_ != nullptr) ctr_write_errors_->Inc();
    }
  }
  f->dirty = false;
}

void BufferManager::FreeFrameLocked(uint64_t key, Frame* f) {
  if (f->dirty) WritebackLocked(key, f);
}

void BufferManager::ReclaimLocked(std::vector<uint64_t>* evicted) {
  if (kind_ == EvictionPolicyKind::kLru) {
    while (policy_.lru.size() > pool_pages_) {
      const uint64_t victim = policy_.lru.back();
      policy_.lru.pop_back();
      policy_.where.erase(victim);
      evicted->push_back(victim);
    }
    return;
  }
  // 2Q (Johnson & Shasha '94, simplified full version): keep A1in at Kin by
  // demoting its FIFO tail to the ghost queue; once A1in is within bound,
  // evict from the cold end of Am (no ghost — Am pages already proved
  // themselves once and must re-earn admission).
  while (policy_.a1in.size() + policy_.am.size() > pool_pages_) {
    if (policy_.a1in.size() > kin_ || policy_.am.empty()) {
      const uint64_t victim = policy_.a1in.back();
      policy_.a1in.pop_back();
      policy_.a1out.push_front(victim);
      policy_.where[victim] = {2, policy_.a1out.begin()};
      while (policy_.a1out.size() > kout_) {
        policy_.where.erase(policy_.a1out.back());
        policy_.a1out.pop_back();
      }
      evicted->push_back(victim);
    } else {
      const uint64_t victim = policy_.am.back();
      policy_.am.pop_back();
      policy_.where.erase(victim);
      evicted->push_back(victim);
    }
  }
}

bool BufferManager::AccessLocked(uint64_t key, std::vector<uint64_t>* evicted) {
  if (kind_ == EvictionPolicyKind::kNone) return false;  // always a miss
  if (kind_ == EvictionPolicyKind::kLru) {
    auto it = policy_.where.find(key);
    if (it != policy_.where.end()) {
      policy_.lru.splice(policy_.lru.begin(), policy_.lru, it->second.second);
      it->second.second = policy_.lru.begin();
      return true;
    }
    policy_.lru.push_front(key);
    policy_.where[key] = {0, policy_.lru.begin()};
    ReclaimLocked(evicted);
    return false;
  }
  // 2Q.
  auto it = policy_.where.find(key);
  if (it != policy_.where.end()) {
    switch (it->second.first) {
      case 1:  // Am: hit, refresh recency
        policy_.am.splice(policy_.am.begin(), policy_.am, it->second.second);
        it->second.second = policy_.am.begin();
        return true;
      case 0:  // A1in: hit, FIFO position unchanged (classic 2Q)
        return true;
      case 2:  // A1out ghost: miss, but promote straight to Am
        stats_.ghost_hits++;
        policy_.a1out.erase(it->second.second);
        policy_.am.push_front(key);
        it->second = {1, policy_.am.begin()};
        ReclaimLocked(evicted);
        return false;
    }
  }
  policy_.a1in.push_front(key);
  policy_.where[key] = {0, policy_.a1in.begin()};
  ReclaimLocked(evicted);
  return false;
}

bool BufferManager::Access(PageId id) {
  MutexLock lock(&mu_);
  std::vector<uint64_t> evicted;
  const bool hit = AccessLocked(id.key(), &evicted);
  if (hit) {
    stats_.hits++;
    if (ctr_hits_ != nullptr) ctr_hits_->Inc();
  } else {
    stats_.misses++;
    if (ctr_misses_ != nullptr) ctr_misses_->Inc();
    auto fit = frames_.find(id.key());
    if (fit != frames_.end()) fit->second.resident = true;
  }
  for (const uint64_t victim : evicted) EvictLocked(victim);
  return hit;
}

PageGuard BufferManager::Pin(PageId id) {
  MutexLock lock(&mu_);
  auto it = frames_.find(id.key());
  if (it == frames_.end()) {
    auto fileit = files_.find(id.file);
    if (fileit == files_.end()) return PageGuard();
    Frame f;
    f.data = std::make_unique<uint8_t[]>(kPageSize);
    {
      obs::Span fault = obs::Tracer::Begin(tracer_, "storage.page_fault");
      const Status s = fileit->second->ReadPage(id.page, f.data.get());
      fault.Num("file", static_cast<double>(id.file))
          .Num("page", static_cast<double>(id.page));
      if (!s.ok()) return PageGuard();
    }
    stats_.physical_reads++;
    if (ctr_reads_ != nullptr) ctr_reads_->Inc();
    f.resident = PolicyContainsLocked(id.key());
    it = frames_.emplace(id.key(), std::move(f)).first;
  }
  Frame& f = it->second;
  if (f.pins++ == 0) {
    stats_.pinned_frames++;
    stats_.pinned_peak = std::max(stats_.pinned_peak, stats_.pinned_frames);
    if (g_pinned_ != nullptr) {
      g_pinned_->Set(static_cast<double>(stats_.pinned_frames));
    }
  }
  return PageGuard(this, id, f.data.get());
}

PageGuard BufferManager::PinNew(PageId id) {
  MutexLock lock(&mu_);
  assert(frames_.find(id.key()) == frames_.end() &&
         "PinNew over an existing frame");
  Frame f;
  f.data = std::make_unique<uint8_t[]>(kPageSize);
  std::memset(f.data.get(), 0, kPageSize);
  f.dirty = true;
  f.resident = PolicyContainsLocked(id.key());
  auto it = frames_.emplace(id.key(), std::move(f)).first;
  Frame& nf = it->second;
  if (nf.pins++ == 0) {
    stats_.pinned_frames++;
    stats_.pinned_peak = std::max(stats_.pinned_peak, stats_.pinned_frames);
    if (g_pinned_ != nullptr) {
      g_pinned_->Set(static_cast<double>(stats_.pinned_frames));
    }
  }
  return PageGuard(this, id, nf.data.get());
}

void BufferManager::Unpin(PageId id, bool dirty) {
  MutexLock lock(&mu_);
  auto it = frames_.find(id.key());
  assert(it != frames_.end() && "unpin of an unknown frame");
  if (it == frames_.end()) return;
  Frame& f = it->second;
  if (dirty) f.dirty = true;
  assert(f.pins > 0 && "unpin underflow");
  if (--f.pins == 0) {
    stats_.pinned_frames--;
    if (g_pinned_ != nullptr) {
      g_pinned_->Set(static_cast<double>(stats_.pinned_frames));
    }
    if (!f.resident) {  // zombie or never-resident frame: reclaim now
      FreeFrameLocked(id.key(), &f);
      frames_.erase(it);
    }
  }
}

BufferStats BufferManager::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

size_t BufferManager::physical_frames() const {
  MutexLock lock(&mu_);
  return frames_.size();
}

void BufferManager::ResetForTest() {
  MutexLock lock(&mu_);
  // NOLINTNEXTLINE(bouquet-determinism): erases by key; the order is unseen
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->second.pins == 0) {
      // Test resets drop dirty bytes deliberately (spill temp data).
      it = frames_.erase(it);
    } else {
      it->second.resident = false;
      ++it;
    }
  }
  policy_ = PolicyState();
  const uint64_t pinned = stats_.pinned_frames;
  stats_ = BufferStats();
  stats_.pinned_frames = pinned;
  stats_.pinned_peak = pinned;
}

void BufferManager::SetObservability(obs::MetricsRegistry* metrics,
                                     obs::Tracer* tracer) {
  MutexLock lock(&mu_);
  metrics_ = metrics;
  tracer_ = tracer;
  if (metrics == nullptr) {
    ctr_hits_ = ctr_misses_ = ctr_evictions_ = ctr_writebacks_ = ctr_reads_ =
        ctr_writes_ = ctr_write_errors_ = nullptr;
    g_pinned_ = nullptr;
    return;
  }
  ctr_hits_ = metrics->GetCounter("buffer_hits_total",
                                  "Buffer-pool accounting hits");
  ctr_misses_ = metrics->GetCounter("buffer_misses_total",
                                    "Buffer-pool accounting misses");
  ctr_evictions_ = metrics->GetCounter("buffer_evictions_total",
                                       "Pages evicted by the policy");
  ctr_writebacks_ = metrics->GetCounter("buffer_writebacks_total",
                                        "Dirty frames written back");
  ctr_reads_ = metrics->GetCounter("buffer_physical_reads_total",
                                   "Page faults served by pread");
  ctr_writes_ = metrics->GetCounter("buffer_physical_writes_total",
                                    "Page writes issued by pwrite");
  ctr_write_errors_ = metrics->GetCounter("buffer_write_errors_total",
                                          "Failed writeback pwrites");
  g_pinned_ = metrics->GetGauge("buffer_pinned_frames",
                                "Frames currently pinned");
}

}  // namespace storage
}  // namespace bouquet
