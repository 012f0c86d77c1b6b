#include "executor/batch.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <unordered_map>

#include "executor/binding.h"
#include "executor/charge_units.h"
#include "obs/metrics.h"
#include "storage/buffer_manager.h"
#include "storage/paged_table.h"

namespace bouquet {

using batch_internal::EvKind;
using batch_internal::MeterEvent;
using batch_internal::Tape;

void BatchExecState::SetBuffer(storage::BufferManager* bm) {
  buffer_ = bm;
  const FixedPrices price(ctx_->cost_model->params());
  page_hit_cost_ = price.page_hit;
  page_seq_cost_ = price.page_seq;
  page_rand_cost_ = price.page_rand;
}

bool BatchExecState::Replay(const std::vector<MeterEvent>& events,
                            uint16_t root_slot, int64_t* root_emits) {
  if (aborted_) return false;
  // The accumulator and budget live in locals across the tape; the meter
  // takes the tape's sum in one add at the end (integer sums do not depend
  // on how they are grouped).
  const FixedCost start = ctx_->meter.charged();
  const FixedCost budget = ctx_->meter.budget();
  FixedCost charged = start;
  NodeCounters* const* ncs = nc_.data();
  const MeterEvent* const begin = events.data();
  const MeterEvent* const end = begin + events.size();
  const MeterEvent* e = begin;
  for (; e != end; ++e) {
    if (e->kind == EvKind::kFinish) {
      if (unbounded_) SettleSlot(e->node);
      ctx_->instr.FinishNode(nodes_[e->node]);
      continue;
    }
    if (e->kind == EvKind::kPageSeq || e->kind == EvKind::kPageRand) {
      // Replay-time accounting: the Access() here is the same deterministic
      // replacement-state transition the scalar engine performs at access
      // time, executed in the identical (scalar charge) order — so hit/miss
      // outcomes, and therefore every price, match exactly.
      const bool hit = buffer_->Access(storage::PageId{e->file, e->page});
      if (hit) {
        ctx_->page_hits_charged++;
      } else {
        ctx_->page_reads_charged++;
      }
      charged = SatAdd(charged, hit ? page_hit_cost_
                                    : (e->kind == EvKind::kPageSeq
                                           ? page_seq_cost_
                                           : page_rand_cost_));
      if (charged > budget) break;
      continue;
    }
    // A run of `count` charges: one multiply when it fits the budget. When
    // it does not, the units that fit are one division away, and the next
    // one trips the meter — the unit a scalar run would have stopped on.
    const FixedCost unit = e->unit;
    int64_t done = e->count;
    const FixedCost next = SatAdd(charged, SatMul(unit, done));
    if (next <= budget) {
      charged = next;
    } else {
      done = (budget - charged) / unit;  // unit > 0: the run overshoots
      charged = SatAdd(charged, SatMul(unit, done + 1));
    }
    if (e->kind == EvKind::kChargeScan) {
      assert(ncs[e->node] != nullptr && "charge before touch");
      ncs[e->node]->AddScanned(done);
    } else if (e->kind == EvKind::kChargeEmit) {
      assert(ncs[e->node] != nullptr && "charge before touch");
      ncs[e->node]->AddOut(done);
      if (root_emits != nullptr && e->node == root_slot) *root_emits += done;
    }
    if (charged > budget) break;
  }
  tape_events_ += (e - begin) + (e != end ? 1 : 0);
  if (!ctx_->meter.Charge(charged - start)) aborted_ = true;
  return !aborted_;
}

void BatchExecState::SettleSlot(uint16_t slot) {
  batch_internal::ChargeTotals::Counts& c = totals_.slots[slot];
  if (c.scanned == 0 && c.out == 0) return;
  assert(nc_[slot] != nullptr && "charge before touch");
  nc_[slot]->AddScanned(c.scanned);
  nc_[slot]->AddOut(c.out);
  c = {};
}

void BatchExecState::SettleDirect() {
  if (!unbounded_) return;
  for (size_t slot = 0; slot < totals_.slots.size(); ++slot) {
    SettleSlot(static_cast<uint16_t>(slot));
  }
  ctx_->meter.Charge(totals_.charged);  // an unbounded meter never trips
  totals_.charged = 0;
}

namespace {

using exec_internal::BoundEquality;
using exec_internal::BoundFilter;
using exec_internal::EvalFilterValue;

// ---------------------------------------------------------------------------
// Selection-vector kernels. Sequential scans normalize every comparison to
// an unsigned range test at build time (RangePred below), fuse up to four
// predicates into one compare-and-store pass over the whole chunk — no
// loop-carried dependence, so it vectorizes — then extract survivors from
// packed 64-bit words, which costs time proportional to the survivor count
// rather than the chunk. (A compact-as-you-filter cascade is serial through
// the selection-vector write index on every pass; separate per-predicate
// byte-mask passes pay the mask store/reload three times over.)
// ---------------------------------------------------------------------------

/// A comparison normalized to `(uint64_t)(v - lo) < span`: membership in the
/// half-open unsigned window starting at lo. Always-true and always-false
/// predicates are resolved at build time and never reach the kernels.
struct RangePred {
  int pos = 0;        ///< column index in the table
  int64_t lo = 0;     ///< inclusive lower bound
  uint64_t span = 0;  ///< hi - lo + 1 (never wraps: full range is resolved)
};

inline uint8_t InRange(int64_t v, const RangePred& r) {
  return static_cast<uint8_t>(static_cast<uint64_t>(v) -
                                  static_cast<uint64_t>(r.lo) <
                              r.span);
}

/// One fused pass for 1..4 predicates: byte mask of the conjunction.
/// Additional predicates (rare) AND in with PredAndRange passes. Column
/// pointers are hoisted into __restrict locals — the byte store would
/// otherwise be presumed to alias both the pointer array and the column
/// data, forcing reloads and blocking vectorization.
void PredFused(const int64_t* const* cols, const RangePred* r, size_t nr,
               int chunk, uint8_t* __restrict pr) {
  const int64_t* __restrict c0 = cols[0];
  const RangePred r0 = r[0];
  if (nr == 1) {
    for (int i = 0; i < chunk; ++i) pr[i] = InRange(c0[i], r0);
    return;
  }
  const int64_t* __restrict c1 = cols[1];
  const RangePred r1 = r[1];
  if (nr == 2) {
    for (int i = 0; i < chunk; ++i) {
      pr[i] = InRange(c0[i], r0) & InRange(c1[i], r1);
    }
    return;
  }
  const int64_t* __restrict c2 = cols[2];
  const RangePred r2 = r[2];
  if (nr == 3) {
    for (int i = 0; i < chunk; ++i) {
      pr[i] = InRange(c0[i], r0) & InRange(c1[i], r1) & InRange(c2[i], r2);
    }
    return;
  }
  const int64_t* __restrict c3 = cols[3];
  const RangePred r3 = r[3];
  for (int i = 0; i < chunk; ++i) {
    pr[i] = InRange(c0[i], r0) & InRange(c1[i], r1) & InRange(c2[i], r2) &
            InRange(c3[i], r3);
  }
}

void PredAndRange(const int64_t* __restrict col, const RangePred& r, int chunk,
                  uint8_t* __restrict pr) {
  for (int i = 0; i < chunk; ++i) pr[i] &= InRange(col[i], r);
}

/// Extracts survivor positions from a 0/1 byte mask. Each 64-byte group is
/// packed into one word (the multiply gathers byte j into bit 56+j with no
/// cross-term carries, since all bytes are 0 or 1), then set bits are walked
/// with countr_zero. `pr` must be zero-padded to a multiple of 64 bytes.
int SelFromPred(const uint8_t* pr, int chunk, int32_t* sel) {
  int m = 0;
  for (int g = 0; g < chunk; g += 64) {
    uint64_t w = 0;
    for (int j = 0; j < 64; j += 8) {
      uint64_t b;
      std::memcpy(&b, pr + g + j, 8);
      w |= ((b * 0x0102040810204080ull) >> 56) << j;
    }
    while (w != 0) {
      sel[m++] = g + std::countr_zero(w);
      w &= w - 1;
    }
  }
  return m;
}

// Indirect variants for index scans, where the chunk is a slice of the index
// match list rather than a contiguous row range.
template <typename Pred>
inline int SelInitIdxT(const int64_t* col, const uint32_t* idx, int chunk,
                       int32_t* sel, Pred pred) {
  int m = 0;
  for (int i = 0; i < chunk; ++i) {
    sel[m] = i;
    m += pred(col[idx[i]]) ? 1 : 0;
  }
  return m;
}

template <typename Pred>
inline int SelRefineIdxT(const int64_t* col, const uint32_t* idx, int32_t* sel,
                         int m, Pred pred) {
  int m2 = 0;
  for (int k = 0; k < m; ++k) {
    const int32_t i = sel[k];
    sel[m2] = i;
    m2 += pred(col[idx[i]]) ? 1 : 0;
  }
  return m2;
}

int SelInitIdx(const int64_t* col, const uint32_t* idx, int chunk,
               const BoundFilter& f, int32_t* sel) {
  const int64_t c = f.constant;
  switch (f.op) {
    case CompareOp::kLess:
      return SelInitIdxT(col, idx, chunk, sel, [c](int64_t v) { return v < c; });
    case CompareOp::kLessEqual:
      return SelInitIdxT(col, idx, chunk, sel,
                         [c](int64_t v) { return v <= c; });
    case CompareOp::kGreater:
      return SelInitIdxT(col, idx, chunk, sel, [c](int64_t v) { return v > c; });
    case CompareOp::kGreaterEqual:
      return SelInitIdxT(col, idx, chunk, sel,
                         [c](int64_t v) { return v >= c; });
    case CompareOp::kEqual:
      return SelInitIdxT(col, idx, chunk, sel,
                         [c](int64_t v) { return v == c; });
  }
  return 0;
}

int SelRefineIdx(const int64_t* col, const uint32_t* idx, const BoundFilter& f,
                 int32_t* sel, int m) {
  const int64_t c = f.constant;
  switch (f.op) {
    case CompareOp::kLess:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v < c; });
    case CompareOp::kLessEqual:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v <= c; });
    case CompareOp::kGreater:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v > c; });
    case CompareOp::kGreaterEqual:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v >= c; });
    case CompareOp::kEqual:
      return SelRefineIdxT(col, idx, sel, m, [c](int64_t v) { return v == c; });
  }
  return 0;
}

inline uint64_t HashKey(int64_t k) {
  uint64_t x = static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 32;
  return x;
}

// ---------------------------------------------------------------------------
// Sequential scan
// ---------------------------------------------------------------------------

class BatchSeqScanOp : public BatchOp {
 public:
  BatchSeqScanOp(const PlanNode* node, BatchExecState* st,
                 std::vector<BoundFilter> filters)
      : BatchOp(node, st) {
    ExecContext* ctx = st->ctx();
    const std::string& tname = ctx->query->tables[node->table_idx];
    table_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    // The charge prices every bound filter, whether or not the normalized
    // form below still needs to evaluate it, as the scalar scan charges
    // independently of short-circuiting. Paged storage: I/O rides the tape
    // as kPageSeq events priced at replay.
    per_row_charge_ = ScanRowCharge(
        ctx->cost_model->params(),
        ctx->catalog->GetTable(tname).stats.row_width_bytes, filters.size(),
        paged_ != nullptr);
    if (paged_ != nullptr) {
      nrows_ = paged_->num_rows();
      st->SetBuffer(paged_->buffer());
      scratch_.resize(static_cast<size_t>(table_->num_columns()) *
                      static_cast<size_t>(paged_->rows_per_page()));
    } else {
      nrows_ = table_->num_rows();
    }
    // Conjunctive predicates on the same column intersect into one range
    // (a BETWEEN pair costs the kernels a single window test). The scalar
    // engine evaluates the original conjunction term by term; the surviving
    // set is identical either way.
    struct ColRange {
      int pos;
      int64_t lo;
      int64_t hi;
    };
    std::vector<ColRange> merged;
    for (const BoundFilter& f : filters) {
      const auto [lo, hi] = exec_internal::FilterRange(f);
      ColRange* cr = nullptr;
      for (ColRange& c : merged) {
        if (c.pos == f.pos) {
          cr = &c;
          break;
        }
      }
      if (cr != nullptr) {
        cr->lo = std::max(cr->lo, lo);
        cr->hi = std::min(cr->hi, hi);
      } else if (lo != INT64_MIN || hi != INT64_MAX) {  // skip always-true
        merged.push_back({f.pos, lo, hi});
      }
    }
    for (const ColRange& c : merged) {
      if (c.lo > c.hi) {  // empty intersection
        never_match_ = true;
        break;
      }
      ranges_.push_back(
          {c.pos, c.lo,
           static_cast<uint64_t>(c.hi) - static_cast<uint64_t>(c.lo) + 1});
    }
    for (int c = 0; c < table_->num_columns(); ++c) {
      schema_.push_back({node->table_idx, c});
    }
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int ncols = table_->num_columns();
    const int64_t nrows = nrows_;
    while (out->n < bsz) {
      if (next_row_ >= nrows) {
        guard_ = storage::PageGuard();
        out->tape.Finish(slot_);
        return ExecResult::kDone;
      }
      const int64_t base = next_row_;
      int chunk = static_cast<int>(
          std::min<int64_t>(bsz - out->n, nrows - base));
      int64_t col_base = base;
      if (paged_ != nullptr) {
        // Clip the chunk to the page holding `base` so each chunk maps to
        // exactly one kPageSeq event, positioned before the chunk's
        // per-row charges — the scalar page-crossing order.
        const int rpp = paged_->rows_per_page();
        const int64_t in_page = base % rpp;
        chunk = static_cast<int>(
            std::min<int64_t>(chunk, rpp - in_page));
        const uint32_t pg = paged_->PageOfRow(base);
        if (pg != emitted_page_) {
          out->tape.PageSeq(slot_, paged_->file_id(), pg);
          emitted_page_ = pg;
        }
        if (pg != decoded_page_) {
          guard_ = paged_->PinRowPage(base);
          paged_->DecodePage(guard_, scratch_.data());
          decoded_page_ = pg;
        }
        col_base = in_page;
      }
      // In paged mode the decoded page's columns are contiguous in scratch
      // (column-major, rows_per_page apart), so the same kernels run over
      // either source through one pointer per column.
      const auto col_ptr = [&](int c) -> const int64_t* {
        return paged_ != nullptr
                   ? scratch_.data() +
                         static_cast<size_t>(c) *
                             static_cast<size_t>(paged_->rows_per_page()) +
                         col_base
                   : table_->column(c).data() + base;
      };
      next_row_ += chunk;
      sel_.resize(static_cast<size_t>(chunk));
      int m;
      if (never_match_) {
        m = 0;
      } else if (ranges_.empty()) {
        m = chunk;
        for (int i = 0; i < chunk; ++i) sel_[i] = i;
      } else {
        // Accounting never observes predicate evaluation order: the tape
        // depends only on the surviving set, which equals the scalar
        // engine's short-circuit conjunction.
        const int padded = (chunk + 63) & ~63;
        pred_.resize(static_cast<size_t>(padded));
        std::fill(pred_.begin() + chunk, pred_.end(), uint8_t{0});
        const int64_t* cols[4] = {nullptr, nullptr, nullptr, nullptr};
        const size_t head = std::min<size_t>(ranges_.size(), 4);
        for (size_t fi = 0; fi < head; ++fi) {
          cols[fi] = col_ptr(ranges_[fi].pos);
        }
        PredFused(cols, ranges_.data(), head, chunk, pred_.data());
        for (size_t fi = 4; fi < ranges_.size(); ++fi) {
          PredAndRange(col_ptr(ranges_[fi].pos), ranges_[fi], chunk,
                       pred_.data());
        }
        m = SelFromPred(pred_.data(), chunk, sel_.data());
      }
      // Events: one RLE run of per-row scan charges up to (and including)
      // each surviving row, an emit charge per survivor, and a trailing run
      // for rows scanned after the last survivor.
      int32_t prev = -1;
      for (int k = 0; k < m; ++k) {
        const int32_t i = sel_[k];
        out->tape.ChargeScan(slot_, per_row_charge_,
                             static_cast<uint32_t>(i - prev));
        out->tape.ChargeEmit(slot_, price_.tuple);
        out->MarkRow();
        prev = i;
      }
      if (chunk - 1 > prev) {
        out->tape.ChargeScan(slot_, per_row_charge_,
                             static_cast<uint32_t>(chunk - 1 - prev));
      }
      for (int c = 0; c < ncols; ++c) {
        const int64_t* src = col_ptr(c);
        auto& dst = out->cols[c];
        const size_t old = dst.size();
        dst.resize(old + static_cast<size_t>(m));
        int64_t* d = dst.data() + old;
        for (int k = 0; k < m; ++k) d[k] = src[sel_[k]];
      }
    }
    return ExecResult::kRow;
  }

 private:
  const DataTable* table_;
  const storage::PagedTable* paged_;
  std::vector<RangePred> ranges_;
  bool never_match_ = false;
  FixedCost per_row_charge_;
  int64_t nrows_;
  int64_t next_row_ = 0;
  uint32_t emitted_page_ = 0;  // page 0 is meta — never a data page
  uint32_t decoded_page_ = 0;
  storage::PageGuard guard_;
  std::vector<int64_t> scratch_;  // decoded page, column-major
  std::vector<int32_t> sel_;
  std::vector<uint8_t> pred_;
};

// ---------------------------------------------------------------------------
// Index scan
// ---------------------------------------------------------------------------

class BatchIndexScanOp : public BatchOp {
 public:
  BatchIndexScanOp(const PlanNode* node, BatchExecState* st,
                   std::vector<BoundFilter> filters, int64_t qual_lo,
                   int64_t qual_hi, int qual_col)
      : BatchOp(node, st), filters_(std::move(filters)) {
    ExecContext* ctx = st->ctx();
    const std::string& tname = ctx->query->tables[node->table_idx];
    table_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    const int64_t nrows =
        paged_ != nullptr ? paged_->num_rows() : table_->num_rows();
    matches_ = ctx->db->sorted_index(tname, qual_col).Range(qual_lo, qual_hi);
    // On paged storage the random page part becomes a kPageRand event per
    // match, priced at replay; the CPU part stays a per-match tape charge.
    const auto& p = ctx->cost_model->params();
    descent_ = IndexDescentCharge(p, nrows);
    per_match_cpu_ = IndexScanMatchCpuCharge(p, filters_.size());
    per_match_ = IndexScanMatchCharge(p, filters_.size());
    if (paged_ != nullptr) {
      st->SetBuffer(paged_->buffer());
      row_buf_.resize(table_->num_columns());
    }
    for (int c = 0; c < table_->num_columns(); ++c) {
      schema_.push_back({node->table_idx, c});
    }
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    if (!descent_charged_) {
      descent_charged_ = true;
      out->tape.Charge(slot_, descent_);
    }
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int ncols = table_->num_columns();
    if (paged_ != nullptr) return NextBatchPaged(out, bsz, ncols);
    while (out->n < bsz) {
      if (next_ >= matches_.size()) {
        out->tape.Finish(slot_);
        return ExecResult::kDone;
      }
      const size_t base = next_;
      const int chunk = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(bsz - out->n), matches_.size() - base));
      next_ += static_cast<size_t>(chunk);
      const uint32_t* idx = matches_.data() + base;
      sel_.resize(static_cast<size_t>(chunk));
      int m;
      if (filters_.empty()) {
        m = chunk;
        for (int i = 0; i < chunk; ++i) sel_[i] = i;
      } else {
        m = SelInitIdx(table_->column(filters_[0].pos).data(), idx, chunk,
                       filters_[0], sel_.data());
        for (size_t fi = 1; fi < filters_.size(); ++fi) {
          m = SelRefineIdx(table_->column(filters_[fi].pos).data(), idx,
                           filters_[fi], sel_.data(), m);
        }
      }
      int32_t prev = -1;
      for (int k = 0; k < m; ++k) {
        const int32_t i = sel_[k];
        out->tape.ChargeScan(slot_, per_match_,
                             static_cast<uint32_t>(i - prev));
        out->tape.ChargeEmit(slot_, price_.tuple);
        out->MarkRow();
        prev = i;
      }
      if (chunk - 1 > prev) {
        out->tape.ChargeScan(slot_, per_match_,
                             static_cast<uint32_t>(chunk - 1 - prev));
      }
      for (int c = 0; c < ncols; ++c) {
        const int64_t* src = table_->column(c).data();
        auto& dst = out->cols[c];
        const size_t old = dst.size();
        dst.resize(old + static_cast<size_t>(m));
        int64_t* d = dst.data() + old;
        for (int k = 0; k < m; ++k) d[k] = src[idx[sel_[k]]];
      }
    }
    return ExecResult::kRow;
  }

 private:
  // Paged storage walks matches one at a time: every match interleaves a
  // kPageRand event with its CPU charge, so the RLE runs of the in-memory
  // path degenerate to length 1 anyway and the row's values have to come
  // out of a pinned page. Tape order per match — page event, ChargeScan,
  // then ChargeEmit for survivors — mirrors the scalar charge order.
  ExecResult NextBatchPaged(ColumnBatch* out, int bsz, int ncols) {
    while (out->n < bsz) {
      if (next_ >= matches_.size()) {
        guard_ = storage::PageGuard();
        out->tape.Finish(slot_);
        return ExecResult::kDone;
      }
      const uint32_t r = matches_[next_++];
      const storage::PageId pid = paged_->PageIdOfRow(r);
      out->tape.PageRand(slot_, pid.file, pid.page);
      out->tape.ChargeScan(slot_, per_match_cpu_, 1);
      if (!guard_.valid() || cur_page_ != pid.page) {
        guard_ = paged_->buffer()->Pin(pid);
        cur_page_ = pid.page;
      }
      const int slot_in_page = paged_->SlotOfRow(r);
      for (int c = 0; c < ncols; ++c) {
        row_buf_[c] = paged_->ValueIn(guard_, slot_in_page, c);
      }
      bool pass = true;
      for (const auto& f : filters_) {
        if (!EvalFilterValue(row_buf_[f.pos], f)) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      out->tape.ChargeEmit(slot_, price_.tuple);
      for (int c = 0; c < ncols; ++c) out->cols[c].push_back(row_buf_[c]);
      out->MarkRow();
    }
    return ExecResult::kRow;
  }

  const DataTable* table_;
  const storage::PagedTable* paged_;
  std::vector<BoundFilter> filters_;
  std::vector<uint32_t> matches_;
  FixedCost descent_;
  FixedCost per_match_;
  FixedCost per_match_cpu_;
  size_t next_ = 0;
  bool descent_charged_ = false;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  Row row_buf_;
  std::vector<int32_t> sel_;
};

// ---------------------------------------------------------------------------
// Hash join (right child builds)
// ---------------------------------------------------------------------------

class BatchHashJoinOp : public BatchOp {
 public:
  BatchHashJoinOp(const PlanNode* node, BatchExecState* st,
                  std::unique_ptr<BatchOp> left, std::unique_ptr<BatchOp> right,
                  int left_key_pos, int right_key_pos,
                  std::vector<BoundEquality> residual)
      : BatchOp(node, st),
        left_(std::move(left)),
        right_(std::move(right)),
        left_key_pos_(left_key_pos),
        right_key_pos_(right_key_pos),
        residual_(std::move(residual)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
    lbatch_.Configure(left_->schema().size(), st->direct());
    rbatch_.Configure(right_->schema().size(), st->direct());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    if (!built_) {
      if (Build() == ExecResult::kAborted) return ExecResult::kAborted;
      built_ = true;
    }
    // Probe exactly one left batch per call: the consumer must replay our
    // tape before we pull again (replay-granularity invariant, batch.h).
    lbatch_.Reset();
    const ExecResult st = left_->NextBatch(&lbatch_);
    if (st == ExecResult::kAborted) return ExecResult::kAborted;
    ProbeBatch(out);
    if (st == ExecResult::kDone) {
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  // Drains the build side, replaying [right row events + build charge] per
  // consumed batch so a budget abort surfaces at the same tuple a scalar
  // build would stop at.
  ExecResult Build() {
    const auto& p = st_->ctx()->cost_model->params();
    const FixedCost build_charge = HashBuildCharge(p);
    const size_t rcols = right_->schema().size();
    bcols_.assign(rcols, {});
    Tape phase(st_->direct());
    int64_t build_rows = 0;
    for (;;) {
      rbatch_.Reset();
      const ExecResult st = right_->NextBatch(&rbatch_);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      phase.Clear();
      for (int64_t j = 0; j < rbatch_.n; ++j) {
        phase.Append(rbatch_.tape, rbatch_.SegBegin(j), rbatch_.SegEnd(j));
        phase.Charge(slot_, build_charge);
      }
      phase.Append(rbatch_.tape, rbatch_.TailBegin(), rbatch_.tape.size());
      if (!st_->Replay(phase.events())) return ExecResult::kAborted;
      for (size_t c = 0; c < rcols; ++c) {
        bcols_[c].insert(bcols_[c].end(), rbatch_.cols[c].begin(),
                         rbatch_.cols[c].end());
      }
      build_rows += rbatch_.n;
      if (st == ExecResult::kDone) break;
    }
    // Multi-batch spill: the build side's pass now, the probe side's share
    // on every probe row.
    const size_t row_slots = build_rows > 0 ? rcols : size_t{1};
    if (HashBuildSpills(p, build_rows, row_slots)) {
      Tape t(st_->direct());
      t.Charge(slot_, HashSpillCharge(p, build_rows, row_slots));
      if (!st_->Replay(t.events())) return ExecResult::kAborted;
    }
    probe_charge_ = HashProbeCharge(p, build_rows, row_slots);
    // Chain table. Prepending in reverse row order makes each chain yield
    // ascending row indices, i.e. insertion order — the same per-key match
    // order the scalar engine's bucket vectors produce.
    size_t nb = 16;
    while (nb < static_cast<size_t>(build_rows) * 2) nb <<= 1;
    mask_ = nb - 1;
    head_.assign(nb, -1);
    next_.resize(static_cast<size_t>(build_rows));
    const int64_t* keys = bcols_[right_key_pos_].data();
    for (int64_t i = build_rows - 1; i >= 0; --i) {
      const size_t b = HashKey(keys[i]) & mask_;
      next_[i] = head_[b];
      head_[b] = static_cast<int32_t>(i);
    }
    return ExecResult::kDone;
  }

  // Two-pass probe: pass 1 walks the hash chains emitting tape events and
  // collecting matched (probe row, build row) pairs; pass 2 materializes the
  // output as one tight gather loop per column. The tape sees the identical
  // event sequence either way — only the data plane is restructured.
  void ProbeBatch(ColumnBatch* out) {
    const int lw = static_cast<int>(left_->schema().size());
    const size_t rw = right_->schema().size();
    const int64_t* lkeys =
        lbatch_.n > 0 ? lbatch_.cols[left_key_pos_].data() : nullptr;
    const int64_t* bkeys = next_.empty() ? nullptr : bcols_[right_key_pos_].data();
    match_l_.clear();
    match_b_.clear();
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.Append(lbatch_.tape, lbatch_.SegBegin(j), lbatch_.SegEnd(j));
      out->tape.Charge(slot_, probe_charge_);
      const int64_t key = lkeys[j];
      for (int32_t i = head_[HashKey(key) & mask_]; i >= 0; i = next_[i]) {
        if (bkeys[i] != key) continue;
        bool ok = true;
        for (const auto& eq : residual_) {
          if (Combined(j, i, eq.left_pos, lw) !=
              Combined(j, i, eq.right_pos, lw)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        out->tape.ChargeEmit(slot_, price_.tuple);
        match_l_.push_back(static_cast<int32_t>(j));
        match_b_.push_back(i);
        out->MarkRow();
      }
    }
    out->tape.Append(lbatch_.tape, lbatch_.TailBegin(), lbatch_.tape.size());
    const size_t nm = match_l_.size();
    for (int c = 0; c < lw; ++c) {
      const int64_t* src = lbatch_.cols[c].data();
      auto& dst = out->cols[c];
      const size_t old = dst.size();
      dst.resize(old + nm);
      int64_t* d = dst.data() + old;
      for (size_t k = 0; k < nm; ++k) d[k] = src[match_l_[k]];
    }
    for (size_t c = 0; c < rw; ++c) {
      const int64_t* src = bcols_[c].data();
      auto& dst = out->cols[lw + static_cast<int>(c)];
      const size_t old = dst.size();
      dst.resize(old + nm);
      int64_t* d = dst.data() + old;
      for (size_t k = 0; k < nm; ++k) d[k] = src[match_b_[k]];
    }
  }

  int64_t Combined(int64_t j, int32_t i, int pos, int lw) const {
    return pos < lw ? lbatch_.cols[pos][j] : bcols_[pos - lw][i];
  }

  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  int left_key_pos_;
  int right_key_pos_;  // within the right child's own row
  std::vector<BoundEquality> residual_;

  bool built_ = false;
  FixedCost probe_charge_ = 0;  // hash op plus any spill pass, per probe row
  std::vector<std::vector<int64_t>> bcols_;  // columnar build store
  std::vector<int32_t> head_;
  std::vector<int32_t> next_;
  size_t mask_ = 0;
  ColumnBatch lbatch_, rbatch_;
  std::vector<int32_t> match_l_, match_b_;  // probe-pass match pairs
};

// ---------------------------------------------------------------------------
// Sort-merge join
// ---------------------------------------------------------------------------

class BatchMergeJoinOp : public BatchOp {
 public:
  BatchMergeJoinOp(const PlanNode* node, BatchExecState* st,
                   std::unique_ptr<BatchOp> left,
                   std::unique_ptr<BatchOp> right, int left_key_pos,
                   int right_key_pos, std::vector<BoundEquality> residual)
      : BatchOp(node, st),
        left_(std::move(left)),
        right_(std::move(right)),
        left_key_pos_(left_key_pos),
        right_key_pos_(right_key_pos),
        residual_(std::move(residual)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    if (!sorted_) {
      if (DrainAndSort() == ExecResult::kAborted) return ExecResult::kAborted;
      sorted_ = true;
    }
    return EmitMerge(out);
  }

 private:
  ExecResult DrainSide(BatchOp* side, std::vector<std::vector<int64_t>>* cols,
                       int64_t* nrows) {
    cols->assign(side->schema().size(), {});
    ColumnBatch in;
    in.Configure(side->schema().size(), st_->direct());
    for (;;) {
      in.Reset();
      const ExecResult st = side->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      // The merge join adds no charge of its own during the drain; the
      // child's events replay verbatim.
      if (!st_->Replay(in.tape.events())) return ExecResult::kAborted;
      for (size_t c = 0; c < cols->size(); ++c) {
        (*cols)[c].insert((*cols)[c].end(), in.cols[c].begin(),
                          in.cols[c].end());
      }
      *nrows += in.n;
      if (st == ExecResult::kDone) return ExecResult::kDone;
    }
  }

  void SortSide(std::vector<std::vector<int64_t>>* cols, int key_pos,
                int64_t n) {
    perm_.resize(static_cast<size_t>(n));
    for (int64_t k = 0; k < n; ++k) perm_[k] = k;
    const int64_t* key = (*cols)[key_pos].data();
    // stable_sort with the scalar comparator => identical permutation to
    // stable-sorting the rows themselves.
    std::stable_sort(perm_.begin(), perm_.end(),
                     [key](int64_t a, int64_t b) { return key[a] < key[b]; });
    std::vector<int64_t> tmp(static_cast<size_t>(n));
    for (auto& col : *cols) {
      for (int64_t k = 0; k < n; ++k) tmp[k] = col[perm_[k]];
      col.swap(tmp);
    }
  }

  ExecResult DrainAndSort() {
    if (DrainSide(left_.get(), &lcols_, &nl_) == ExecResult::kAborted) {
      return ExecResult::kAborted;
    }
    if (DrainSide(right_.get(), &rcols_, &nr_) == ExecResult::kAborted) {
      return ExecResult::kAborted;
    }
    if (!node_->left_presorted) SortSide(&lcols_, left_key_pos_, nl_);
    if (!node_->right_presorted) SortSide(&rcols_, right_key_pos_, nr_);
    // The (possibly zero) sort total is one charge.
    Tape t(st_->direct());
    t.Charge(slot_, MergeSortCharge(*st_->ctx()->cost_model, *node_, nl_,
                                    left_->schema().size(), nr_,
                                    right_->schema().size()));
    return st_->Replay(t.events()) ? ExecResult::kDone : ExecResult::kAborted;
  }

  int64_t Combined(int64_t li, int64_t rj, int pos) const {
    const int lw = static_cast<int>(left_->schema().size());
    return pos < lw ? lcols_[pos][li] : rcols_[pos - lw][rj];
  }

  ExecResult EmitMerge(ColumnBatch* out) {
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int lw = static_cast<int>(left_->schema().size());
    const int rw = static_cast<int>(right_->schema().size());
    const int64_t* lkey = nl_ > 0 ? lcols_[left_key_pos_].data() : nullptr;
    const int64_t* rkey = nr_ > 0 ? rcols_[right_key_pos_].data() : nullptr;
    // Two-pass (see BatchHashJoinOp::ProbeBatch): the emit loop records
    // matched row pairs; columns materialize in one gather per column right
    // before handing the batch back.
    pairs_l_.clear();
    pairs_r_.clear();
    const auto flush = [&] {
      const size_t nm = pairs_l_.size();
      for (int c = 0; c < lw; ++c) {
        const int64_t* src = lcols_[c].data();
        auto& dst = out->cols[c];
        const size_t old = dst.size();
        dst.resize(old + nm);
        int64_t* d = dst.data() + old;
        for (size_t k = 0; k < nm; ++k) d[k] = src[pairs_l_[k]];
      }
      for (int c = 0; c < rw; ++c) {
        const int64_t* src = rcols_[c].data();
        auto& dst = out->cols[lw + c];
        const size_t old = dst.size();
        dst.resize(old + nm);
        int64_t* d = dst.data() + old;
        for (size_t k = 0; k < nm; ++k) d[k] = src[pairs_r_[k]];
      }
    };
    for (;;) {
      // Emit the cross product of the current equal-key groups.
      if (gi_ < gl_end_) {
        while (gj_ < gr_end_) {
          if (out->n >= bsz) {
            flush();
            return ExecResult::kRow;
          }
          const int64_t rj = gj_++;
          bool ok = true;
          for (const auto& eq : residual_) {
            if (Combined(gi_, rj, eq.left_pos) !=
                Combined(gi_, rj, eq.right_pos)) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          out->tape.ChargeEmit(slot_, price_.tuple);
          pairs_l_.push_back(gi_);
          pairs_r_.push_back(rj);
          out->MarkRow();
        }
        ++gi_;
        gj_ = gr_start_;
        continue;
      }
      // Find the next pair of equal-key groups (scalar state machine).
      li_ = gl_end_;
      ri_ = gr_end_;
      if (li_ >= nl_ || ri_ >= nr_) {
        out->tape.Finish(slot_);
        flush();
        return ExecResult::kDone;
      }
      out->tape.Charge(slot_, price_.op);
      const int64_t lk = lkey[li_];
      const int64_t rk = rkey[ri_];
      if (lk < rk) {
        gl_end_ = li_ + 1;
        gi_ = gl_end_;  // empty group; just advance left
        gr_end_ = ri_;
        gj_ = gr_start_ = ri_;
        continue;
      }
      if (lk > rk) {
        gr_end_ = ri_ + 1;
        gl_end_ = li_;
        gi_ = li_;
        gj_ = gr_start_ = gr_end_;  // empty
        continue;
      }
      int64_t le = li_;
      while (le < nl_ && lkey[le] == lk) ++le;
      int64_t re = ri_;
      while (re < nr_ && rkey[re] == rk) ++re;
      gi_ = li_;
      gl_end_ = le;
      gr_start_ = ri_;
      gj_ = ri_;
      gr_end_ = re;
    }
  }

  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  int left_key_pos_;
  int right_key_pos_;
  std::vector<BoundEquality> residual_;

  bool sorted_ = false;
  std::vector<std::vector<int64_t>> lcols_, rcols_;
  int64_t nl_ = 0, nr_ = 0;
  std::vector<int64_t> perm_;
  std::vector<int64_t> pairs_l_, pairs_r_;  // emit-pass match pairs
  int64_t li_ = 0, ri_ = 0;
  int64_t gi_ = 0, gl_end_ = 0;
  int64_t gj_ = 0, gr_start_ = 0, gr_end_ = 0;
};

// ---------------------------------------------------------------------------
// Index nested-loop join
// ---------------------------------------------------------------------------

class BatchIndexNLJoinOp : public BatchOp {
 public:
  BatchIndexNLJoinOp(const PlanNode* node, BatchExecState* st,
                     std::unique_ptr<BatchOp> left, int inner_table_idx,
                     int inner_key_col, int outer_key_pos,
                     std::vector<BoundFilter> inner_filters,
                     std::vector<BoundEquality> residual)
      : BatchOp(node, st),
        left_(std::move(left)),
        inner_key_col_(inner_key_col),
        outer_key_pos_(outer_key_pos),
        inner_filters_(std::move(inner_filters)),
        residual_(std::move(residual)) {
    ExecContext* ctx = st->ctx();
    const std::string& tname = ctx->query->tables[inner_table_idx];
    inner_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    const int64_t inner_rows =
        paged_ != nullptr ? paged_->num_rows() : inner_->num_rows();
    index_ = &ctx->db->hash_index(tname, inner_key_col_);
    schema_ = left_->schema();
    for (int c = 0; c < inner_->num_columns(); ++c) {
      schema_.push_back({inner_table_idx, c});
      inner_cols_.push_back(inner_->column(c).data());
    }
    if (paged_ != nullptr) {
      st->SetBuffer(paged_->buffer());
      inner_buf_.resize(inner_->num_columns());
    }
    lbatch_.Configure(left_->schema().size(), st->direct());
    // Paged storage turns the random page part into a kPageRand event.
    const auto& p = ctx->cost_model->params();
    const size_t quals = inner_filters_.size() + residual_.size();
    descent_ = IndexDescentCharge(p, inner_rows);
    per_match_ = IndexNLMatchCharge(p, quals);
    per_match_cpu_ = IndexNLMatchCpuCharge(p, quals);
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    const int lw = static_cast<int>(left_->schema().size());
    const int iw = static_cast<int>(inner_cols_.size());
    // One left batch per call (replay-granularity invariant, batch.h).
    lbatch_.Reset();
    const ExecResult st = left_->NextBatch(&lbatch_);
    if (st == ExecResult::kAborted) return ExecResult::kAborted;
    // Two-pass (see BatchHashJoinOp::ProbeBatch): events + match pairs
    // first, then per-column bulk gathers. Paged inner rows can't be
    // gathered by pointer later, so pass 1 stashes their values.
    match_l_.clear();
    match_r_.clear();
    inner_gather_.clear();
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.Append(lbatch_.tape, lbatch_.SegBegin(j), lbatch_.SegEnd(j));
      out->tape.Charge(slot_, descent_);
      const auto& matches = index_->Lookup(lbatch_.cols[outer_key_pos_][j]);
      for (const uint32_t r : matches) {
        if (paged_ != nullptr) {
          const storage::PageId pid = paged_->PageIdOfRow(r);
          out->tape.PageRand(slot_, pid.file, pid.page);
          out->tape.Charge(slot_, per_match_cpu_);
          if (!guard_.valid() || cur_page_ != pid.page) {
            guard_ = paged_->buffer()->Pin(pid);
            cur_page_ = pid.page;
          }
          const int slot_in_page = paged_->SlotOfRow(r);
          for (int c = 0; c < iw; ++c) {
            inner_buf_[c] = paged_->ValueIn(guard_, slot_in_page, c);
          }
        } else {
          out->tape.Charge(slot_, per_match_);
        }
        bool pass = true;
        for (const auto& f : inner_filters_) {
          const int64_t v =
              paged_ != nullptr ? inner_buf_[f.pos] : inner_cols_[f.pos][r];
          if (!EvalFilterValue(v, f)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        for (const auto& eq : residual_) {
          if (Combined(j, r, eq.left_pos, lw) !=
              Combined(j, r, eq.right_pos, lw)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        out->tape.ChargeEmit(slot_, price_.tuple);
        match_l_.push_back(static_cast<int32_t>(j));
        match_r_.push_back(r);
        if (paged_ != nullptr) {
          inner_gather_.insert(inner_gather_.end(), inner_buf_.begin(),
                               inner_buf_.end());
        }
        out->MarkRow();
      }
    }
    out->tape.Append(lbatch_.tape, lbatch_.TailBegin(), lbatch_.tape.size());
    const size_t nm = match_l_.size();
    for (int c = 0; c < lw; ++c) {
      const int64_t* src = lbatch_.cols[c].data();
      auto& dst = out->cols[c];
      const size_t old = dst.size();
      dst.resize(old + nm);
      int64_t* d = dst.data() + old;
      for (size_t k = 0; k < nm; ++k) d[k] = src[match_l_[k]];
    }
    for (int c = 0; c < iw; ++c) {
      auto& dst = out->cols[lw + c];
      const size_t old = dst.size();
      dst.resize(old + nm);
      int64_t* d = dst.data() + old;
      if (paged_ != nullptr) {
        const int64_t* vals = inner_gather_.data();
        for (size_t k = 0; k < nm; ++k) {
          d[k] = vals[k * static_cast<size_t>(iw) + c];
        }
      } else {
        const int64_t* src = inner_cols_[c];
        for (size_t k = 0; k < nm; ++k) d[k] = src[match_r_[k]];
      }
    }
    if (st == ExecResult::kDone) {
      guard_ = storage::PageGuard();
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  int64_t Combined(int64_t j, uint32_t r, int pos, int lw) const {
    if (pos < lw) return lbatch_.cols[pos][j];
    // Paged inner rows are staged in inner_buf_ (filled for the match being
    // tested); in-memory inners read the column directly.
    return paged_ != nullptr ? inner_buf_[pos - lw] : inner_cols_[pos - lw][r];
  }

  std::unique_ptr<BatchOp> left_;
  int inner_key_col_;
  int outer_key_pos_;
  std::vector<BoundFilter> inner_filters_;
  std::vector<BoundEquality> residual_;

  const DataTable* inner_;
  const storage::PagedTable* paged_;
  FixedCost descent_;
  FixedCost per_match_;
  FixedCost per_match_cpu_;
  const HashIndex* index_;
  std::vector<const int64_t*> inner_cols_;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  Row inner_buf_;
  std::vector<int64_t> inner_gather_;  // survivor inner values, row-major
  ColumnBatch lbatch_;
  std::vector<int32_t> match_l_;
  std::vector<uint32_t> match_r_;
};

// ---------------------------------------------------------------------------
// Materialized nested-loop join
// ---------------------------------------------------------------------------

class BatchMaterialNLJoinOp : public BatchOp {
 public:
  BatchMaterialNLJoinOp(const PlanNode* node, BatchExecState* st,
                        std::unique_ptr<BatchOp> left,
                        std::unique_ptr<BatchOp> right,
                        std::vector<BoundEquality> conditions)
      : BatchOp(node, st),
        left_(std::move(left)),
        right_(std::move(right)),
        conditions_(std::move(conditions)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
    lbatch_.Configure(left_->schema().size(), st->direct());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    if (!materialized_) {
      if (Materialize() == ExecResult::kAborted) return ExecResult::kAborted;
      materialized_ = true;
    }
    const int lw = static_cast<int>(left_->schema().size());
    const int rw = static_cast<int>(right_->schema().size());
    // One left batch per call (replay-granularity invariant, batch.h).
    lbatch_.Reset();
    const ExecResult st = left_->NextBatch(&lbatch_);
    if (st == ExecResult::kAborted) return ExecResult::kAborted;
    const int64_t ninner = ninner_;
    sel_.resize(static_cast<size_t>(ninner));
    for (int64_t j = 0; j < lbatch_.n; ++j) {
      out->tape.Append(lbatch_.tape, lbatch_.SegBegin(j), lbatch_.SegEnd(j));
      // Selection vector over the materialized inner: each condition either
      // compares an inner column against a value fixed by the outer row or
      // two inner columns against each other.
      int m = static_cast<int>(ninner);
      for (int64_t i = 0; i < ninner; ++i) sel_[i] = static_cast<int32_t>(i);
      for (const auto& eq : conditions_) {
        const int64_t* a_col =
            eq.left_pos < lw ? nullptr : icols_[eq.left_pos - lw].data();
        const int64_t a_const =
            eq.left_pos < lw ? lbatch_.cols[eq.left_pos][j] : 0;
        const int64_t* b_col =
            eq.right_pos < lw ? nullptr : icols_[eq.right_pos - lw].data();
        const int64_t b_const =
            eq.right_pos < lw ? lbatch_.cols[eq.right_pos][j] : 0;
        int m2 = 0;
        for (int k = 0; k < m; ++k) {
          const int32_t i = sel_[k];
          const int64_t va = a_col != nullptr ? a_col[i] : a_const;
          const int64_t vb = b_col != nullptr ? b_col[i] : b_const;
          sel_[m2] = i;
          m2 += va == vb ? 1 : 0;
        }
        m = m2;
      }
      // Per inner row the scalar engine charges cpu_operator_cost before
      // testing the conditions, then cpu_tuple_cost per emit.
      int32_t prev = -1;
      for (int k = 0; k < m; ++k) {
        const int32_t i = sel_[k];
        out->tape.Charge(slot_, price_.op, static_cast<uint32_t>(i - prev));
        out->tape.ChargeEmit(slot_, price_.tuple);
        out->MarkRow();
        prev = i;
      }
      if (ninner - 1 > prev) {
        out->tape.Charge(slot_, price_.op,
                         static_cast<uint32_t>(ninner - 1 - prev));
      }
      // Bulk output: the outer row's values repeat m times, inner columns
      // gather through the surviving selection vector.
      for (int c = 0; c < lw; ++c) {
        out->cols[c].resize(out->cols[c].size() + static_cast<size_t>(m),
                            lbatch_.cols[c][j]);
      }
      for (int c = 0; c < rw; ++c) {
        const int64_t* src = icols_[c].data();
        auto& dst = out->cols[lw + c];
        const size_t old = dst.size();
        dst.resize(old + static_cast<size_t>(m));
        int64_t* d = dst.data() + old;
        for (int k = 0; k < m; ++k) d[k] = src[sel_[k]];
      }
    }
    out->tape.Append(lbatch_.tape, lbatch_.TailBegin(), lbatch_.tape.size());
    if (st == ExecResult::kDone) {
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  ExecResult Materialize() {
    const size_t rcols = right_->schema().size();
    icols_.assign(rcols, {});
    ColumnBatch in;
    in.Configure(rcols, st_->direct());
    Tape phase(st_->direct());
    for (;;) {
      in.Reset();
      const ExecResult st = right_->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      phase.Clear();
      for (int64_t j = 0; j < in.n; ++j) {
        phase.Append(in.tape, in.SegBegin(j), in.SegEnd(j));
        phase.Charge(slot_, price_.tuple);
      }
      phase.Append(in.tape, in.TailBegin(), in.tape.size());
      if (!st_->Replay(phase.events())) return ExecResult::kAborted;
      for (size_t c = 0; c < rcols; ++c) {
        icols_[c].insert(icols_[c].end(), in.cols[c].begin(),
                         in.cols[c].end());
      }
      ninner_ += in.n;
      if (st == ExecResult::kDone) return ExecResult::kDone;
    }
  }

  std::unique_ptr<BatchOp> left_;
  std::unique_ptr<BatchOp> right_;
  std::vector<BoundEquality> conditions_;

  bool materialized_ = false;
  std::vector<std::vector<int64_t>> icols_;
  int64_t ninner_ = 0;
  ColumnBatch lbatch_;
  std::vector<int32_t> sel_;
};

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

// Must stay bit-identical to the scalar HashAggregateOp's private RowHash:
// with the same hasher, same key insertion sequence, and the same
// std::unordered_map implementation, the two engines iterate groups in the
// same order and therefore emit identical row sequences.
struct AggRowHash {
  size_t operator()(const Row& r) const {
    size_t h = 1469598103934665603ULL;
    for (int64_t v : r) {
      h ^= static_cast<size_t>(v);
      h *= 1099511628211ULL;
    }
    return h;
  }
};

class BatchHashAggregateOp : public BatchOp {
 public:
  BatchHashAggregateOp(const PlanNode* node, BatchExecState* st,
                       std::unique_ptr<BatchOp> child,
                       std::vector<int> group_positions, int agg_position,
                       AggregateSpec::Func func)
      : BatchOp(node, st),
        child_(std::move(child)),
        group_positions_(std::move(group_positions)),
        agg_position_(agg_position),
        func_(func) {
    for (int pos : group_positions_) {
      schema_.push_back(child_->schema()[pos]);
    }
    schema_.push_back({-1, -1});  // aggregate value
    key_buf_.resize(group_positions_.size());
  }

  ExecResult NextBatch(ColumnBatch* out) override {
    if (st_->aborted() || st_->ctx()->meter.exhausted()) {
      return ExecResult::kAborted;
    }
    if (!touched_) {
      st_->TouchSlot(slot_);
      touched_ = true;
    }
    if (!built_) {
      if (Build() == ExecResult::kAborted) return ExecResult::kAborted;
      built_ = true;
    }
    const int bsz = std::max(1, st_->ctx()->batch_size);
    const int gcols = static_cast<int>(group_positions_.size());
    while (emit_ != emit_rows_.size() && out->n < bsz) {
      const auto& row = emit_rows_[emit_];
      out->tape.ChargeEmit(slot_, price_.tuple);
      for (int c = 0; c < gcols; ++c) {
        out->cols[c].push_back(row.first[c]);
      }
      out->cols[gcols].push_back(row.second);
      out->MarkRow();
      ++emit_;
    }
    if (emit_ == emit_rows_.size()) {
      out->tape.Finish(slot_);
      return ExecResult::kDone;
    }
    return ExecResult::kRow;
  }

 private:
  ExecResult Build() {
    const FixedCost build_charge =
        AggregateBuildCharge(st_->ctx()->cost_model->params());
    ColumnBatch in;
    in.Configure(child_->schema().size(), st_->direct());
    Tape phase(st_->direct());
    for (;;) {
      in.Reset();
      const ExecResult st = child_->NextBatch(&in);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      phase.Clear();
      for (int64_t j = 0; j < in.n; ++j) {
        phase.Append(in.tape, in.SegBegin(j), in.SegEnd(j));
        phase.Charge(slot_, build_charge);
      }
      phase.Append(in.tape, in.TailBegin(), in.tape.size());
      if (!st_->Replay(phase.events())) return ExecResult::kAborted;
      for (int64_t j = 0; j < in.n; ++j) {
        for (size_t g = 0; g < group_positions_.size(); ++g) {
          key_buf_[g] = in.cols[group_positions_[g]][j];
        }
        const int64_t value =
            agg_position_ >= 0 ? in.cols[agg_position_][j] : 1;
        auto [it, inserted] = groups_.try_emplace(key_buf_, 0);
        switch (func_) {
          case AggregateSpec::Func::kCount:
            it->second += 1;
            break;
          case AggregateSpec::Func::kSum:
            it->second = inserted ? value : it->second + value;
            break;
          case AggregateSpec::Func::kMin:
            it->second = inserted ? value : std::min(it->second, value);
            break;
          case AggregateSpec::Func::kMax:
            it->second = inserted ? value : std::max(it->second, value);
            break;
        }
      }
      if (st == ExecResult::kDone) break;
    }
    // COUNT over empty ungrouped input emits one zero row (SQL semantics),
    // matching the scalar engine.
    if (groups_.empty() && group_positions_.empty() &&
        func_ == AggregateSpec::Func::kCount) {
      groups_.try_emplace(Row{}, 0);
    }
    // Deterministic emission order, identical to the scalar engine's sort:
    // hash-map iteration order is unspecified (bouquet-determinism), and
    // the abort-truncated result prefix must not depend on it.
    // NOLINTNEXTLINE(bouquet-determinism): drained into the sort below
    emit_rows_.assign(std::make_move_iterator(groups_.begin()),
                      std::make_move_iterator(groups_.end()));
    std::sort(emit_rows_.begin(), emit_rows_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    groups_.clear();
    emit_ = 0;
    return ExecResult::kDone;
  }

  std::unique_ptr<BatchOp> child_;
  std::vector<int> group_positions_;
  int agg_position_;
  AggregateSpec::Func func_;

  bool built_ = false;
  Row key_buf_;
  std::unordered_map<Row, int64_t, AggRowHash> groups_;
  /// Sorted (group key, aggregate) pairs; see the sort comment in Build().
  std::vector<std::pair<Row, int64_t>> emit_rows_;
  size_t emit_ = 0;
};

// The batch engine's operator classes, for the one binder (binding.h).
struct BatchEngine {
  using Op = BatchOp;
  using State = BatchExecState;
  static const ExecContext* Context(BatchExecState* st) { return st->ctx(); }
  using SeqScan = BatchSeqScanOp;
  using IndexScan = BatchIndexScanOp;
  using HashJoin = BatchHashJoinOp;
  using MergeJoin = BatchMergeJoinOp;
  using IndexNLJoin = BatchIndexNLJoinOp;
  using MaterialNLJoin = BatchMaterialNLJoinOp;
  using HashAggregate = BatchHashAggregateOp;
};

}  // namespace

Result<std::unique_ptr<BatchOp>> BuildBatchExecutor(const PlanNode& root,
                                                    BatchExecState* state) {
  const ExecContext* ctx = state->ctx();
  assert(ctx->query && ctx->db && ctx->catalog && ctx->cost_model);
  (void)ctx;
  return exec_internal::BindPlan<BatchEngine>(root, state);
}

ExecResult DrainBatchOperator(BatchOp* op, BatchExecState* state,
                              const RowSink& sink, int64_t* emitted) {
  obs::Histogram* const batch_rows = state->ctx()->batch_rows;
  const uint16_t root_slot = op->slot();
  const size_t ncols = op->schema().size();
  ColumnBatch batch;
  batch.Configure(ncols, state->direct());
  int64_t count = 0;
  ExecResult status = ExecResult::kDone;
  for (;;) {
    batch.Reset();
    const ExecResult st = op->NextBatch(&batch);
    if (st == ExecResult::kAborted) {
      status = ExecResult::kAborted;
      break;
    }
    int64_t root_emits = 0;
    const bool ok = state->Replay(batch.tape.events(), root_slot, &root_emits);
    // Unbudgeted, the root's emit charges never reach the tape; every row
    // of the batch exists.
    const int64_t ok_rows = state->direct() != nullptr ? batch.n : root_emits;
    if (batch.n > 0) {
      state->batches_produced++;
      state->rows_produced += batch.n;
      if (batch_rows != nullptr) {
        batch_rows->Observe(static_cast<double>(batch.n));
      }
    }
    // Rows whose emit charge did not complete before the abort are data the
    // scalar engine would never have produced; truncate them.
    count += ok_rows;
    if (sink.keeps()) {
      Row r(ncols);
      for (int64_t i = 0; i < ok_rows; ++i) {
        for (size_t c = 0; c < ncols; ++c) r[c] = batch.cols[c][i];
        sink.Put(r);
      }
    }
    if (!ok) {
      status = ExecResult::kAborted;
      break;
    }
    if (st == ExecResult::kDone) break;
  }
  state->SettleDirect();
  *emitted = count;
  return status;
}

}  // namespace bouquet
