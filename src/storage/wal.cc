#include "storage/wal.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/flight.h"
#include "obs/health.h"
#include "obs/trace.h"

namespace idba {

namespace {
// Record pages: [0..kPageCrcSize) disk checksum, then u16 used-bytes.
constexpr size_t kWalPageHeader = kPageCrcSize + 2;
constexpr size_t kWalPageCapacity = kPageSize - kWalPageHeader;
// A used-bytes value no real page can carry; a terminator page stamped
// with it fails ParsePage and fences the recovery scan.
constexpr uint16_t kTerminatorUsed = 0xFFFF;

// Header page 0: [0..kPageCrcSize) checksum, "IWAL", u16 version,
// u64 start_page, u64 truncate_below_lsn.
constexpr uint8_t kWalMagic[4] = {'I', 'W', 'A', 'L'};
constexpr uint16_t kWalVersion = 1;

uint16_t PageUsed(const PageData& p) {
  return static_cast<uint16_t>(
      p.bytes[kPageCrcSize] |
      (static_cast<uint16_t>(p.bytes[kPageCrcSize + 1]) << 8));
}

void SetPageUsed(PageData* p, uint16_t used) {
  p->bytes[kPageCrcSize] = static_cast<uint8_t>(used);
  p->bytes[kPageCrcSize + 1] = static_cast<uint8_t>(used >> 8);
}

void PutU64At(PageData* p, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p->bytes[pos + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

uint64_t GetU64At(const PageData& p, size_t pos) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(p.bytes[pos + i]) << (8 * i);
  }
  return v;
}

PageData MakeHeaderPage(PageId start_page, Lsn truncate_below) {
  PageData page;
  std::memcpy(page.bytes + kPageCrcSize, kWalMagic, 4);
  page.bytes[kPageCrcSize + 4] = static_cast<uint8_t>(kWalVersion);
  page.bytes[kPageCrcSize + 5] = static_cast<uint8_t>(kWalVersion >> 8);
  PutU64At(&page, kPageCrcSize + 6, start_page);
  PutU64At(&page, kPageCrcSize + 14, truncate_below);
  return page;
}

bool IsHeaderPage(const PageData& page) {
  return std::memcmp(page.bytes + kPageCrcSize, kWalMagic, 4) == 0;
}

PageData MakeTerminatorPage() {
  PageData page;
  SetPageUsed(&page, kTerminatorUsed);
  return page;
}

Status ParsePage(const PageData& page, std::vector<WalRecord>* out) {
  size_t used = PageUsed(page);
  if (used > kWalPageCapacity) {
    return Status::Corruption("WAL page used-bytes out of range");
  }
  size_t off = 0;
  const uint8_t* body = page.bytes + kWalPageHeader;
  while (off + 4 <= used) {
    uint32_t len = 0;
    std::memcpy(&len, body + off, 4);
    off += 4;
    if (len == 0 || off + len > used) {
      return Status::Corruption("WAL record overruns page");
    }
    Decoder dec(body + off, len);
    WalRecord rec;
    IDBA_RETURN_NOT_OK(WalRecord::DecodeFrom(&dec, &rec));
    out->push_back(std::move(rec));
    off += len;
  }
  return Status::OK();
}

size_t EncodedEntrySize(const WalRecord& rec) {
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  rec.EncodeTo(&enc);
  return 4 + payload.size();
}
}  // namespace

void WalRecord::EncodeTo(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(type));
  enc->PutU64(lsn);
  enc->PutU64(txn);
  enc->PutU64(oid.value);
  const bool has_image =
      type == WalRecordType::kInsert || type == WalRecordType::kUpdate;
  enc->PutU8(has_image ? 1 : 0);
  if (has_image) after.EncodeTo(enc);
}

Status WalRecord::DecodeFrom(Decoder* dec, WalRecord* out) {
  uint8_t type = 0;
  IDBA_RETURN_NOT_OK(dec->GetU8(&type));
  out->type = static_cast<WalRecordType>(type);
  IDBA_RETURN_NOT_OK(dec->GetU64(&out->lsn));
  IDBA_RETURN_NOT_OK(dec->GetU64(&out->txn));
  uint64_t oid = 0;
  IDBA_RETURN_NOT_OK(dec->GetU64(&oid));
  out->oid = Oid(oid);
  uint8_t has_image = 0;
  IDBA_RETURN_NOT_OK(dec->GetU8(&has_image));
  if (has_image != 0) {
    IDBA_RETURN_NOT_OK(DatabaseObject::DecodeFrom(dec, &out->after));
  }
  return Status::OK();
}

Wal::Wal(Disk* disk) : disk_(disk) {
  // Resume after an existing log: position past the last durable record and
  // restore the byte counter from the recovered log (post-restart metrics
  // would otherwise under-report everything ever appended).
  if (disk_->PageCount() > 0) {
    PageData page0;
    Status st = disk_->ReadPage(0, &page0);
    if (st.ok() && IsHeaderPage(page0)) {
      start_page_ = GetU64At(page0, kPageCrcSize + 6);
      truncate_below_lsn_ = GetU64At(page0, kPageCrcSize + 14);
      header_dirty_ = false;
    }
    // Otherwise the header is still owed — a torn first flush can lose it,
    // and an all-zero page passes its checksum. Records start at page 1
    // (the defaults) and the next flush or truncation writes the header.
    PageId resume = start_page_;
    auto existing = ReadAllFromDisk(disk_, nullptr, &resume);
    if (existing.ok() && !existing.value().empty()) {
      next_lsn_ = existing.value().back().lsn + 1;
      recovered_records_ = existing.value().size();
      for (const WalRecord& rec : existing.value()) {
        appended_bytes_ += EncodedEntrySize(rec);
      }
    } else {
      next_lsn_ = truncate_below_lsn_ + 1;
    }
    // Continue appending on a fresh page at the scan's cut point (one past
    // the last cleanly parsed page — appending at PageCount() could land
    // past a truncation terminator, invisible to recovery). Simpler than
    // refilling a partial tail page; wastes at most one page per restart.
    next_page_ = std::max(resume, start_page_);
  }
  durable_lsn_ = next_lsn_ - 1;  // everything on disk is durable
  fsyncs_total_ = GlobalMetrics().GetCounter("wal.fsyncs_total");
  batch_size_ = GlobalMetrics().GetHistogram("wal.group.batch_size");
  wait_us_ = GlobalMetrics().GetHistogram("wal.group.wait_us");
  if (recovered_records_ > 0) {
    GlobalMetrics().GetCounter("wal.recovered_records")->Add(recovered_records_);
  }
}

Result<Lsn> Wal::Append(WalRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  rec.lsn = next_lsn_;
  std::vector<uint8_t> payload;
  Encoder enc(&payload);
  rec.EncodeTo(&enc);
  if (payload.size() + 4 > kWalPageCapacity) {
    return Status::InvalidArgument("WAL record exceeds page capacity: " +
                                   std::to_string(payload.size()) + " bytes");
  }
  ++next_lsn_;
  std::vector<uint8_t> entry(4 + payload.size());
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(entry.data(), &len, 4);
  std::memcpy(entry.data() + 4, payload.data(), payload.size());
  appended_bytes_ += entry.size();
  obs::FlightRecord(obs::FlightType::kWalAppend, rec.lsn, entry.size());
  pending_.push_back(std::move(entry));
  return rec.lsn;
}

Status Wal::PackAndSync(const std::vector<std::vector<uint8_t>>& batch) {
  // Snapshot the pack state: a failed batch's entries are dropped (their
  // committers see the error and abort), so the tail must revert to its
  // pre-batch image for the next batch to pack from. Pages the failed batch
  // already wrote beyond the restored tail are garbage; ReadAllFromDisk's
  // monotonic-LSN cutoff ignores them and the next successful batch
  // overwrites them.
  const PageId saved_next_page = next_page_;
  const size_t saved_used = cur_used_;
  const PageData saved_page = cur_page_;
  const bool saved_header_dirty = header_dirty_;

  Status st = Status::OK();
  if (header_dirty_) {
    st = disk_->WritePage(0, MakeHeaderPage(start_page_, truncate_below_lsn_));
    if (st.ok()) header_dirty_ = false;
  }
  for (const auto& entry : batch) {
    if (!st.ok()) break;
    if (cur_used_ + entry.size() > kWalPageCapacity) {
      SetPageUsed(&cur_page_, static_cast<uint16_t>(cur_used_));
      st = disk_->WritePage(next_page_, cur_page_);
      if (!st.ok()) break;
      ++next_page_;
      cur_page_ = PageData{};
      cur_used_ = 0;
    }
    std::memcpy(cur_page_.bytes + kWalPageHeader + cur_used_, entry.data(),
                entry.size());
    cur_used_ += entry.size();
  }
  if (st.ok()) {
    SetPageUsed(&cur_page_, static_cast<uint16_t>(cur_used_));
    st = disk_->WritePage(next_page_, cur_page_);
    if (st.ok()) st = disk_->Sync();
  }
  if (!st.ok()) {
    next_page_ = saved_next_page;
    cur_used_ = saved_used;
    cur_page_ = saved_page;
    header_dirty_ = saved_header_dirty;
    tail_dirty_ = true;  // on-disk tail may hold failed-batch bytes
    return st;
  }
  tail_dirty_ = false;
  fsyncs_local_.Add();
  fsyncs_total_->Add();
  batch_size_->Record(static_cast<double>(batch.size()));
  return Status::OK();
}

Status Wal::WaitDurable(Lsn lsn) {
  const int64_t t0 = obs::NowUs();
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // A failed batch drops its records; waiters for those LSNs must see the
    // batch's error, never a later batch's success (the durable horizon
    // keeps advancing past the hole).
    for (const DroppedRange& r : dropped_) {
      if (lsn >= r.from && lsn <= r.upto) {
        Status st = r.error;
        wait_us_->Record(static_cast<double>(obs::NowUs() - t0));
        return st;
      }
    }
    if (durable_lsn_ >= lsn) {
      wait_us_->Record(static_cast<double>(obs::NowUs() - t0));
      return Status::OK();
    }
    if (!flush_in_progress_) break;
    cv_.wait(lk);
  }

  // Leader: claim the flush, optionally linger so concurrent committers
  // join this batch, then pack + sync everything appended so far. Appenders
  // are never blocked on the I/O: mu_ is dropped while it runs.
  flush_in_progress_ = true;
  const int64_t window = group_window_us_.load(std::memory_order_relaxed);
  if (window > 0) {
    lk.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(window));
    lk.lock();
  }
  const Lsn target = next_lsn_ - 1;
  std::vector<std::vector<uint8_t>> batch = std::move(pending_);
  pending_.clear();
  const bool dirty = tail_dirty_ || !batch.empty();
  lk.unlock();

  Status st = Status::OK();
  const int64_t flush_start = obs::NowUs();
  if (dirty) {
    // The leader wears the flush for observers: profiler samples during the
    // group-commit I/O carry the flush-leader tag, and the flight ring
    // brackets the batch so a crash dump shows how far the last flush got.
    obs::ScopedThreadPhase phase("flush-leader");
    obs::FlightRecord(obs::FlightType::kWalFlushBegin, batch.size(), target);
    st = PackAndSync(batch);
    const uint64_t flush_us =
        static_cast<uint64_t>(obs::NowUs() - flush_start);
    obs::FlightRecord(st.ok() ? obs::FlightType::kWalFlushEnd
                              : obs::FlightType::kWalFlushFail,
                      target, flush_us);
  }

  lk.lock();
  flush_in_progress_ = false;
  if (st.ok()) {
    durable_lsn_ = target;
  } else if (target > durable_lsn_) {
    dropped_.push_back(DroppedRange{durable_lsn_ + 1, target, st});
  }
  cv_.notify_all();
  wait_us_->Record(static_cast<double>(obs::NowUs() - t0));
  return st;
}

Status Wal::Flush() {
  IDBA_TRACE_SPAN("storage.wal_flush");
  Lsn last;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last = next_lsn_ - 1;
  }
  return WaitDurable(last);
}

Result<std::vector<WalRecord>> Wal::ReadAll() const {
  // Wait out any in-flight batch: while one runs, the pack state belongs to
  // the leader. Holding mu_ afterwards blocks new leaders from starting.
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !flush_in_progress_; });
  std::vector<WalRecord> out;
  // Full pages already shipped to disk (pages at >= next_page_ can only be
  // failed-batch leftovers, excluded by the bound).
  for (PageId p = start_page_; p < next_page_; ++p) {
    PageData page;
    IDBA_RETURN_NOT_OK(disk_->ReadPage(p, &page));
    IDBA_RETURN_NOT_OK(ParsePage(page, &out));
  }
  // The in-memory tail page is authoritative for its contents.
  IDBA_RETURN_NOT_OK(ParsePage(cur_page_, &out));
  // Records appended but not yet packed into any page.
  for (const auto& entry : pending_) {
    Decoder dec(entry.data() + 4, entry.size() - 4);
    WalRecord rec;
    IDBA_RETURN_NOT_OK(WalRecord::DecodeFrom(&dec, &rec));
    out.push_back(std::move(rec));
  }
  return out;
}

Result<std::vector<WalRecord>> Wal::ReadAllFromDisk(Disk* disk,
                                                    Lsn* truncate_below,
                                                    PageId* resume_page) {
  if (truncate_below != nullptr) *truncate_below = 0;
  if (resume_page != nullptr) *resume_page = 1;
  std::vector<WalRecord> out;
  if (disk->PageCount() == 0) return out;

  PageId start = 1;
  Lsn horizon = 0;
  {
    PageData page0;
    // Header-page corruption propagates: without the header we cannot even
    // locate the record region, unlike a bad record page which just cuts
    // the replay prefix.
    IDBA_RETURN_NOT_OK(disk->ReadPage(0, &page0));
    if (IsHeaderPage(page0)) {
      start = GetU64At(page0, kPageCrcSize + 6);
      horizon = GetU64At(page0, kPageCrcSize + 14);
    }
    // No magic: the header write was lost; records start at page 1.
  }
  if (truncate_below != nullptr) *truncate_below = horizon;
  if (resume_page != nullptr) *resume_page = start;

  for (PageId p = start; p < disk->PageCount(); ++p) {
    PageData page;
    Status read_st = disk->ReadPage(p, &page);
    if (read_st.IsCorruption()) return out;  // torn/bit-flipped page: cut
    IDBA_RETURN_NOT_OK(read_st);
    std::vector<WalRecord> page_recs;
    Status st = ParsePage(page, &page_recs);
    // A torn or stale tail page (crash mid-batch), or the terminator a
    // truncation planted, ends the log: everything before it is the
    // durable prefix, which is exactly what recovery should replay.
    if (!st.ok()) return out;
    for (WalRecord& rec : page_recs) {
      // LSNs are strictly increasing in a well-formed log. A regression
      // means this page is a leftover from a failed batch that newer
      // flushes never overwrote — cut the scan there.
      if (!out.empty() && rec.lsn <= out.back().lsn) return out;
      out.push_back(std::move(rec));
    }
    if (resume_page != nullptr) *resume_page = p + 1;
  }
  return out;
}

Status Wal::Reset() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !flush_in_progress_; });
  IDBA_RETURN_NOT_OK(disk_->Truncate());
  start_page_ = 1;
  next_page_ = 1;
  cur_page_ = PageData{};
  cur_used_ = 0;
  tail_dirty_ = false;
  header_dirty_ = true;
  truncate_below_lsn_ = 0;
  bytes_at_truncate_ = appended_bytes_;
  pending_.clear();
  durable_lsn_ = next_lsn_ - 1;
  dropped_.clear();
  return Status::OK();
}

Status Wal::TruncateUpTo(Lsn upto, TruncateStats* stats) {
  if (stats != nullptr) *stats = TruncateStats{};

  // Claim the flush token like a group-commit leader: the pack state is
  // ours for the duration, while Append() keeps buffering into pending_.
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return !flush_in_progress_; });
  if (upto > durable_lsn_) {
    return Status::InvalidArgument("TruncateUpTo beyond the durable horizon");
  }
  if (upto <= truncate_below_lsn_) {
    bytes_at_truncate_ = appended_bytes_;
    return Status::OK();
  }
  flush_in_progress_ = true;
  const PageId old_start = start_page_;
  const PageId old_next = next_page_;
  lk.unlock();

  // Re-read the packed region and keep only survivors (LSN > upto). The
  // in-memory tail page is authoritative for its own contents.
  auto cleanup = [&](Status st) {
    std::lock_guard<std::mutex> relock(mu_);
    flush_in_progress_ = false;
    cv_.notify_all();
    return st;
  };
  std::vector<WalRecord> records;
  for (PageId p = old_start; p < old_next; ++p) {
    PageData page;
    Status st = disk_->ReadPage(p, &page);
    if (st.ok()) st = ParsePage(page, &records);
    if (!st.ok()) return cleanup(st);
  }
  {
    Status st = ParsePage(cur_page_, &records);
    if (!st.ok()) return cleanup(st);
  }
  uint64_t dropped_bytes = 0;
  std::vector<std::vector<uint8_t>> survivors;
  for (const WalRecord& rec : records) {
    std::vector<uint8_t> payload;
    Encoder enc(&payload);
    rec.EncodeTo(&enc);
    if (rec.lsn <= upto) {
      dropped_bytes += 4 + payload.size();
      continue;
    }
    std::vector<uint8_t> entry(4 + payload.size());
    uint32_t len = static_cast<uint32_t>(payload.size());
    std::memcpy(entry.data(), &len, 4);
    std::memcpy(entry.data() + 4, payload.data(), payload.size());
    survivors.push_back(std::move(entry));
  }

  // Pack survivors into fresh pages; the last (possibly partial, possibly
  // empty) page becomes the new in-memory tail.
  std::vector<PageData> packed(1);
  size_t used = 0;
  for (const auto& entry : survivors) {
    if (used + entry.size() > kWalPageCapacity) {
      SetPageUsed(&packed.back(), static_cast<uint16_t>(used));
      packed.emplace_back();
      used = 0;
    }
    std::memcpy(packed.back().bytes + kWalPageHeader + used, entry.data(),
                entry.size());
    used += entry.size();
  }
  SetPageUsed(&packed.back(), static_cast<uint16_t>(used));
  const PageId total = packed.size();

  // Hop 1: write the survivors PAST the live tail (which sits at old_next;
  // overwriting it before the header flip would destroy the durable log),
  // fence them with a terminator so stale pages beyond never parse, sync,
  // then flip the header. A crash on either side of the flip recovers a
  // complete log — the old one or the truncated one.
  uint64_t pages_written = 0;
  auto write_region = [&](PageId at) -> Status {
    for (PageId i = 0; i < total; ++i) {
      IDBA_RETURN_NOT_OK(disk_->WritePage(at + i, packed[i]));
      ++pages_written;
    }
    IDBA_RETURN_NOT_OK(disk_->WritePage(at + total, MakeTerminatorPage()));
    ++pages_written;
    IDBA_RETURN_NOT_OK(disk_->Sync());
    IDBA_RETURN_NOT_OK(disk_->WritePage(0, MakeHeaderPage(at, upto)));
    ++pages_written;
    return disk_->Sync();
  };
  PageId new_start = old_next + 1;
  {
    Status st = write_region(new_start);
    if (!st.ok()) {
      std::lock_guard<std::mutex> relock(mu_);
      flush_in_progress_ = false;
      tail_dirty_ = true;  // the on-disk tail region is now unknown
      cv_.notify_all();
      return st;
    }
  }
  // Hop 2: when the front of the disk has room (the region we just freed),
  // copy the survivors back there so the file can physically shrink. The
  // guard keeps hop 2's terminator from clobbering hop 1's live copy.
  if (1 + total + 1 <= new_start) {
    Status st = write_region(1);
    if (st.ok()) {
      new_start = 1;
      st = disk_->TruncateTo(1 + total + 1);
      (void)st;  // physical shrink is best-effort space reclamation
    }
    // On failure the hop-1 copy is still the live log: keep it.
    if (!st.ok()) {
      PageData page0;
      if (disk_->ReadPage(0, &page0).ok() && IsHeaderPage(page0) &&
          GetU64At(page0, kPageCrcSize + 6) == 1) {
        // Header already flipped to the (possibly incomplete) front copy:
        // rewrite it to point at the intact hop-1 region.
        Status fix = disk_->WritePage(0, MakeHeaderPage(old_next + 1, upto));
        if (fix.ok()) fix = disk_->Sync();
        if (!fix.ok()) {
          std::lock_guard<std::mutex> relock(mu_);
          flush_in_progress_ = false;
          tail_dirty_ = true;
          cv_.notify_all();
          return fix;
        }
      }
      new_start = old_next + 1;
    }
  }

  lk.lock();
  start_page_ = new_start;
  next_page_ = new_start + total - 1;  // tail page index
  cur_page_ = packed.back();
  cur_used_ = used;
  tail_dirty_ = false;
  header_dirty_ = false;
  truncate_below_lsn_ = upto;
  bytes_at_truncate_ = appended_bytes_;
  flush_in_progress_ = false;
  cv_.notify_all();
  lk.unlock();
  if (stats != nullptr) {
    stats->pages_written = pages_written;
    stats->bytes_truncated = dropped_bytes;
  }
  return Status::OK();
}

Lsn Wal::truncate_below_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return truncate_below_lsn_;
}

uint64_t Wal::bytes_since_truncate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_bytes_ - bytes_at_truncate_;
}

Lsn Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_;
}

Lsn Wal::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

uint64_t Wal::appended_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_bytes_;
}

PageId Wal::DiskPages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return disk_->PageCount();
}

}  // namespace idba
