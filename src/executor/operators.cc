#include "executor/operators.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "executor/binding.h"
#include "executor/charge_units.h"
#include "storage/paged_table.h"

namespace bouquet {

bool RowSink::keeps() const {
  return rows != nullptr || (spill != nullptr && spill->ok());
}

void RowSink::Put(const Row& row) const {
  if (spill != nullptr) {
    if (spill->ok()) spill->Append(row);
  } else if (rows != nullptr) {
    rows->push_back(row);
  }
}

namespace {

using exec_internal::BoundEquality;
using exec_internal::BoundFilter;
using exec_internal::EvalAll;

// ---------------------------------------------------------------------------
// Sequential scan
// ---------------------------------------------------------------------------

class SeqScanOp : public Operator {
 public:
  SeqScanOp(const PlanNode* node, ExecContext* ctx,
            std::vector<BoundFilter> filters)
      : node_(node),
        ctx_(ctx),
        price_(ctx->cost_model->params()),
        filters_(std::move(filters)) {
    const std::string& tname = ctx->query->tables[node->table_idx];
    table_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    // Paged storage: I/O is charged per *actual* page access (hit vs miss
    // against the buffer pool), not amortized per row.
    nrows_ = paged_ != nullptr ? paged_->num_rows() : table_->num_rows();
    per_row_charge_ = ScanRowCharge(
        ctx->cost_model->params(),
        ctx->catalog->GetTable(tname).stats.row_width_bytes, filters_.size(),
        paged_ != nullptr);
    for (int c = 0; c < table_->num_columns(); ++c) {
      schema_.push_back({node->table_idx, c});
    }
    row_buf_.resize(table_->num_columns());
  }

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(node_);
    while (next_row_ < nrows_) {
      const int64_t r = next_row_;
      if (paged_ != nullptr) {
        const uint32_t pg = paged_->PageOfRow(r);
        if (pg != cur_page_) {
          // Accounting before pinning: Access() is the deterministic
          // replacement-state transition the batch engine replays in this
          // exact position, so it must happen whether or not the charge
          // fits the budget (the meter records the overshoot either way).
          guard_ = storage::PageGuard();
          const storage::PageId pid{paged_->file_id(), pg};
          const bool hit = paged_->buffer()->Access(pid);
          if (hit) {
            ctx_->page_hits_charged++;
          } else {
            ctx_->page_reads_charged++;
          }
          if (!ctx_->meter.Charge(hit ? price_.page_hit : price_.page_seq)) {
            return ExecResult::kAborted;
          }
          cur_page_ = pg;
          guard_ = paged_->buffer()->Pin(pid);
        }
      }
      if (!ctx_->meter.Charge(per_row_charge_)) return ExecResult::kAborted;
      next_row_ = r + 1;
      nc.tuples_scanned++;
      if (paged_ != nullptr) {
        const int slot = paged_->SlotOfRow(r);
        for (int c = 0; c < static_cast<int>(row_buf_.size()); ++c) {
          row_buf_[c] = paged_->ValueIn(guard_, slot, c);
        }
      } else {
        for (int c = 0; c < table_->num_columns(); ++c) {
          row_buf_[c] = table_->value(c, r);
        }
      }
      if (!EvalAll(row_buf_, filters_)) continue;
      if (!ctx_->meter.Charge(price_.tuple)) return ExecResult::kAborted;
      nc.tuples_out++;
      *out = row_buf_;
      return ExecResult::kRow;
    }
    guard_ = storage::PageGuard();
    ctx_->instr.FinishNode(node_);  // counters + wall time + span hook
    return ExecResult::kDone;
  }

 private:
  const PlanNode* node_;
  ExecContext* ctx_;
  const FixedPrices price_;
  const DataTable* table_;
  const storage::PagedTable* paged_;
  std::vector<BoundFilter> filters_;
  FixedCost per_row_charge_;
  int64_t nrows_;
  int64_t next_row_ = 0;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  Row row_buf_;
};

// ---------------------------------------------------------------------------
// Index scan (selection qual via sorted index)
// ---------------------------------------------------------------------------

class IndexScanOp : public Operator {
 public:
  IndexScanOp(const PlanNode* node, ExecContext* ctx,
              std::vector<BoundFilter> filters, int64_t qual_lo,
              int64_t qual_hi, int qual_col)
      : node_(node),
        ctx_(ctx),
        price_(ctx->cost_model->params()),
        filters_(std::move(filters)) {
    const std::string& tname = ctx->query->tables[node->table_idx];
    table_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    const int64_t nrows =
        paged_ != nullptr ? paged_->num_rows() : table_->num_rows();
    matches_ = ctx->db->sorted_index(tname, qual_col).Range(qual_lo, qual_hi);
    for (int c = 0; c < table_->num_columns(); ++c) {
      schema_.push_back({node->table_idx, c});
    }
    row_buf_.resize(table_->num_columns());
    // On paged storage the buffer pool prices each match's page (hit vs
    // miss) as its own meter add; in memory it stays folded into the flat
    // per-match charge.
    const auto& p = ctx->cost_model->params();
    descent_ = IndexDescentCharge(p, nrows);
    per_match_cpu_ = IndexScanMatchCpuCharge(p, filters_.size());
    per_match_ = IndexScanMatchCharge(p, filters_.size());
  }

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(node_);
    if (!descent_charged_) {
      descent_charged_ = true;
      if (!ctx_->meter.Charge(descent_)) return ExecResult::kAborted;
    }
    while (next_ < matches_.size()) {
      // Peek — advance only after the charges landed, so the abort point
      // (and everything after it) is independent of batch lookahead.
      const uint32_t r = matches_[next_];
      if (paged_ != nullptr) {
        const storage::PageId pid = paged_->PageIdOfRow(r);
        const bool hit = paged_->buffer()->Access(pid);
        if (hit) {
          ctx_->page_hits_charged++;
        } else {
          ctx_->page_reads_charged++;
        }
        if (!ctx_->meter.Charge(hit ? price_.page_hit : price_.page_rand)) {
          return ExecResult::kAborted;
        }
        if (!ctx_->meter.Charge(per_match_cpu_)) return ExecResult::kAborted;
        if (!guard_.valid() || cur_page_ != pid.page) {
          guard_ = paged_->buffer()->Pin(pid);
          cur_page_ = pid.page;
        }
      } else {
        if (!ctx_->meter.Charge(per_match_)) return ExecResult::kAborted;
      }
      ++next_;
      nc.tuples_scanned++;
      if (paged_ != nullptr) {
        const int slot = paged_->SlotOfRow(r);
        for (int c = 0; c < static_cast<int>(row_buf_.size()); ++c) {
          row_buf_[c] = paged_->ValueIn(guard_, slot, c);
        }
      } else {
        for (int c = 0; c < table_->num_columns(); ++c) {
          row_buf_[c] = table_->value(c, r);
        }
      }
      if (!EvalAll(row_buf_, filters_)) continue;
      if (!ctx_->meter.Charge(price_.tuple)) return ExecResult::kAborted;
      nc.tuples_out++;
      *out = row_buf_;
      return ExecResult::kRow;
    }
    guard_ = storage::PageGuard();
    ctx_->instr.FinishNode(node_);  // counters + wall time + span hook
    return ExecResult::kDone;
  }

 private:
  const PlanNode* node_;
  ExecContext* ctx_;
  const FixedPrices price_;
  const DataTable* table_;
  const storage::PagedTable* paged_;
  std::vector<BoundFilter> filters_;
  FixedCost descent_;
  FixedCost per_match_cpu_;
  FixedCost per_match_;
  std::vector<uint32_t> matches_;
  size_t next_ = 0;
  bool descent_charged_ = false;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  Row row_buf_;
};

// ---------------------------------------------------------------------------
// Hash join (right child builds)
// ---------------------------------------------------------------------------

class HashJoinOp : public Operator {
 public:
  HashJoinOp(const PlanNode* node, ExecContext* ctx,
             std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
             int left_key_pos, int right_key_pos,
             std::vector<BoundEquality> residual)
      : node_(node),
        ctx_(ctx),
        price_(ctx->cost_model->params()),
        left_(std::move(left)),
        right_(std::move(right)),
        left_key_pos_(left_key_pos),
        right_key_pos_(right_key_pos),
        residual_(std::move(residual)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
  }

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(node_);

    if (!built_) {
      const auto& p = ctx_->cost_model->params();
      const FixedCost build_charge = HashBuildCharge(p);
      Row r;
      int64_t build_rows = 0;
      size_t row_slots = 1;
      for (;;) {
        const ExecResult st = right_->Next(&r);
        if (st == ExecResult::kAborted) return ExecResult::kAborted;
        if (st == ExecResult::kDone) break;
        if (!ctx_->meter.Charge(build_charge)) return ExecResult::kAborted;
        ++build_rows;
        row_slots = r.size();
        table_[r[right_key_pos_]].push_back(r);
      }
      // Multi-batch spill: charge the build side's pass now; the probe
      // side's share rides on every probe row below.
      if (HashBuildSpills(p, build_rows, row_slots) &&
          !ctx_->meter.Charge(HashSpillCharge(p, build_rows, row_slots))) {
        return ExecResult::kAborted;
      }
      probe_charge_ = HashProbeCharge(p, build_rows, row_slots);
      built_ = true;
    }

    for (;;) {
      // Emit remaining matches for the current probe row.
      while (bucket_ != nullptr && bucket_pos_ < bucket_->size()) {
        const Row& rrow = (*bucket_)[bucket_pos_++];
        Row combined = probe_row_;
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        bool ok = true;
        for (const auto& eq : residual_) {
          if (combined[eq.left_pos] != combined[eq.right_pos]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        if (!ctx_->meter.Charge(price_.tuple)) return ExecResult::kAborted;
        nc.tuples_out++;
        *out = std::move(combined);
        return ExecResult::kRow;
      }
      // Advance to the next probe row.
      const ExecResult st = left_->Next(&probe_row_);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (st == ExecResult::kDone) {
        ctx_->instr.FinishNode(node_);  // counters + wall time + span hook
        return ExecResult::kDone;
      }
      if (!ctx_->meter.Charge(probe_charge_)) return ExecResult::kAborted;
      auto it = table_.find(probe_row_[left_key_pos_]);
      bucket_ = it == table_.end() ? nullptr : &it->second;
      bucket_pos_ = 0;
    }
  }

 private:
  const PlanNode* node_;
  ExecContext* ctx_;
  const FixedPrices price_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  int left_key_pos_;
  int right_key_pos_;  // within the right child's own row
  std::vector<BoundEquality> residual_;

  std::unordered_map<int64_t, std::vector<Row>> table_;
  bool built_ = false;
  FixedCost probe_charge_ = 0;  // hash op plus any spill pass, per probe row
  Row probe_row_;
  const std::vector<Row>* bucket_ = nullptr;
  size_t bucket_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Sort-merge join
// ---------------------------------------------------------------------------

class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(const PlanNode* node, ExecContext* ctx,
              std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
              int left_key_pos, int right_key_pos,
              std::vector<BoundEquality> residual)
      : node_(node),
        ctx_(ctx),
        price_(ctx->cost_model->params()),
        left_(std::move(left)),
        right_(std::move(right)),
        left_key_pos_(left_key_pos),
        right_key_pos_(right_key_pos),
        residual_(std::move(residual)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
  }

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(node_);

    if (!sorted_) {
      const ExecResult st = DrainAndSort();
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      sorted_ = true;
    }

    for (;;) {
      // Emit the cross product of the current equal-key groups.
      if (gi_ < gl_end_) {
        while (gj_ < gr_end_) {
          const Row& lrow = lrows_[gi_];
          const Row& rrow = rrows_[gj_++];
          Row combined = lrow;
          combined.insert(combined.end(), rrow.begin(), rrow.end());
          bool ok = true;
          for (const auto& eq : residual_) {
            if (combined[eq.left_pos] != combined[eq.right_pos]) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          if (!ctx_->meter.Charge(price_.tuple)) return ExecResult::kAborted;
          nc.tuples_out++;
          *out = std::move(combined);
          return ExecResult::kRow;
        }
        ++gi_;
        gj_ = gr_start_;
        continue;
      }
      // Find the next pair of equal-key groups.
      li_ = gl_end_;
      ri_ = gr_end_;
      if (li_ >= lrows_.size() || ri_ >= rrows_.size()) {
        ctx_->instr.FinishNode(node_);  // counters + wall time + span hook
        return ExecResult::kDone;
      }
      if (!ctx_->meter.Charge(price_.op)) return ExecResult::kAborted;
      const int64_t lk = lrows_[li_][left_key_pos_];
      const int64_t rk = rrows_[ri_][right_key_pos_];
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
      // Equal keys: delimit both groups.
      size_t le = li_;
      while (le < lrows_.size() && lrows_[le][left_key_pos_] == lk) ++le;
      size_t re = ri_;
      while (re < rrows_.size() && rrows_[re][right_key_pos_] == rk) ++re;
      gi_ = li_;
      gl_end_ = le;
      gr_start_ = ri_;
      gj_ = ri_;
      gr_end_ = re;
    }
  }

 private:
  ExecResult DrainAndSort() {
    Row r;
    for (;;) {
      const ExecResult st = left_->Next(&r);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (st == ExecResult::kDone) break;
      lrows_.push_back(r);
    }
    for (;;) {
      const ExecResult st = right_->Next(&r);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (st == ExecResult::kDone) break;
      rrows_.push_back(r);
    }
    // Charge sort costs in bulk. Pre-sorted inputs — an interesting order
    // produced upstream — skip both the work and the charge.
    if (!node_->left_presorted) {
      std::stable_sort(lrows_.begin(), lrows_.end(),
                       [this](const Row& a, const Row& b) {
                         return a[left_key_pos_] < b[left_key_pos_];
                       });
    }
    if (!node_->right_presorted) {
      std::stable_sort(rrows_.begin(), rrows_.end(),
                       [this](const Row& a, const Row& b) {
                         return a[right_key_pos_] < b[right_key_pos_];
                       });
    }
    const bool ok = ctx_->meter.Charge(MergeSortCharge(
        *ctx_->cost_model, *node_, static_cast<int64_t>(lrows_.size()),
        left_->schema().size(), static_cast<int64_t>(rrows_.size()),
        right_->schema().size()));
    assert(std::is_sorted(lrows_.begin(), lrows_.end(),
                          [this](const Row& a, const Row& b) {
                            return a[left_key_pos_] < b[left_key_pos_];
                          }) &&
           "left merge input not sorted (presorted flag wrong)");
    assert(std::is_sorted(rrows_.begin(), rrows_.end(),
                          [this](const Row& a, const Row& b) {
                            return a[right_key_pos_] < b[right_key_pos_];
                          }) &&
           "right merge input not sorted (presorted flag wrong)");
    return ok ? ExecResult::kDone : ExecResult::kAborted;
  }

  const PlanNode* node_;
  ExecContext* ctx_;
  const FixedPrices price_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  int left_key_pos_;
  int right_key_pos_;
  std::vector<BoundEquality> residual_;

  bool sorted_ = false;
  std::vector<Row> lrows_, rrows_;
  size_t li_ = 0, ri_ = 0;
  size_t gi_ = 0, gl_end_ = 0;
  size_t gj_ = 0, gr_start_ = 0, gr_end_ = 0;
};

// ---------------------------------------------------------------------------
// Index nested-loop join (inner = base table via hash index on join key)
// ---------------------------------------------------------------------------

class IndexNLJoinOp : public Operator {
 public:
  IndexNLJoinOp(const PlanNode* node, ExecContext* ctx,
                std::unique_ptr<Operator> left, int inner_table_idx,
                int inner_key_col, int outer_key_pos,
                std::vector<BoundFilter> inner_filters,
                std::vector<BoundEquality> residual)
      : node_(node),
        ctx_(ctx),
        price_(ctx->cost_model->params()),
        left_(std::move(left)),
        inner_table_idx_(inner_table_idx),
        inner_key_col_(inner_key_col),
        outer_key_pos_(outer_key_pos),
        inner_filters_(std::move(inner_filters)),
        residual_(std::move(residual)) {
    const std::string& tname = ctx->query->tables[inner_table_idx];
    inner_ = &ctx->db->table(tname);
    paged_ = ctx->db->paged(tname);
    const int64_t inner_rows =
        paged_ != nullptr ? paged_->num_rows() : inner_->num_rows();
    index_ = &ctx->db->hash_index(tname, inner_key_col_);
    schema_ = left_->schema();
    for (int c = 0; c < inner_->num_columns(); ++c) {
      schema_.push_back({inner_table_idx, c});
    }
    inner_buf_.resize(inner_->num_columns());
    // Same split as IndexScanOp: on paged storage the random page access is
    // its own buffer-pool-priced meter add.
    const auto& p = ctx->cost_model->params();
    const size_t quals = inner_filters_.size() + residual_.size();
    descent_ = IndexDescentCharge(p, inner_rows);
    per_match_ = IndexNLMatchCharge(p, quals);
    per_match_cpu_ = IndexNLMatchCpuCharge(p, quals);
  }

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(node_);

    for (;;) {
      while (matches_ != nullptr && match_pos_ < matches_->size()) {
        // Peek — advance only after the charges landed (see IndexScanOp).
        const uint32_t r = (*matches_)[match_pos_];
        if (paged_ != nullptr) {
          const storage::PageId pid = paged_->PageIdOfRow(r);
          const bool hit = paged_->buffer()->Access(pid);
          if (hit) {
            ctx_->page_hits_charged++;
          } else {
            ctx_->page_reads_charged++;
          }
          if (!ctx_->meter.Charge(hit ? price_.page_hit : price_.page_rand)) {
            return ExecResult::kAborted;
          }
          if (!ctx_->meter.Charge(per_match_cpu_)) return ExecResult::kAborted;
          if (!guard_.valid() || cur_page_ != pid.page) {
            guard_ = paged_->buffer()->Pin(pid);
            cur_page_ = pid.page;
          }
        } else {
          if (!ctx_->meter.Charge(per_match_)) return ExecResult::kAborted;
        }
        ++match_pos_;
        if (paged_ != nullptr) {
          const int slot = paged_->SlotOfRow(r);
          for (int c = 0; c < static_cast<int>(inner_buf_.size()); ++c) {
            inner_buf_[c] = paged_->ValueIn(guard_, slot, c);
          }
        } else {
          for (int c = 0; c < inner_->num_columns(); ++c) {
            inner_buf_[c] = inner_->value(c, r);
          }
        }
        if (!EvalAll(inner_buf_, inner_filters_)) continue;
        Row combined = outer_row_;
        combined.insert(combined.end(), inner_buf_.begin(), inner_buf_.end());
        bool ok = true;
        for (const auto& eq : residual_) {
          if (combined[eq.left_pos] != combined[eq.right_pos]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        if (!ctx_->meter.Charge(price_.tuple)) return ExecResult::kAborted;
        nc.tuples_out++;
        *out = std::move(combined);
        return ExecResult::kRow;
      }
      const ExecResult st = left_->Next(&outer_row_);
      if (st == ExecResult::kAborted) return ExecResult::kAborted;
      if (st == ExecResult::kDone) {
        guard_ = storage::PageGuard();
        ctx_->instr.FinishNode(node_);  // counters + wall time + span hook
        return ExecResult::kDone;
      }
      if (!ctx_->meter.Charge(descent_)) return ExecResult::kAborted;
      matches_ = &index_->Lookup(outer_row_[outer_key_pos_]);
      match_pos_ = 0;
    }
  }

 private:
  const PlanNode* node_;
  ExecContext* ctx_;
  const FixedPrices price_;
  std::unique_ptr<Operator> left_;
  int inner_table_idx_;
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
  Row outer_row_;
  Row inner_buf_;
  uint32_t cur_page_ = 0;  // page 0 is meta — never a data page
  storage::PageGuard guard_;
  const std::vector<uint32_t>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Materialized nested-loop join
// ---------------------------------------------------------------------------

class MaterialNLJoinOp : public Operator {
 public:
  MaterialNLJoinOp(const PlanNode* node, ExecContext* ctx,
                   std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right,
                   std::vector<BoundEquality> conditions)
      : node_(node),
        ctx_(ctx),
        price_(ctx->cost_model->params()),
        left_(std::move(left)),
        right_(std::move(right)),
        conditions_(std::move(conditions)) {
    schema_ = left_->schema();
    schema_.insert(schema_.end(), right_->schema().begin(),
                   right_->schema().end());
  }

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(node_);

    if (!materialized_) {
      Row r;
      for (;;) {
        const ExecResult st = right_->Next(&r);
        if (st == ExecResult::kAborted) return ExecResult::kAborted;
        if (st == ExecResult::kDone) break;
        if (!ctx_->meter.Charge(price_.tuple)) return ExecResult::kAborted;
        inner_rows_.push_back(r);
      }
      materialized_ = true;
      have_outer_ = false;
    }

    for (;;) {
      if (!have_outer_) {
        const ExecResult st = left_->Next(&outer_row_);
        if (st == ExecResult::kAborted) return ExecResult::kAborted;
        if (st == ExecResult::kDone) {
          ctx_->instr.FinishNode(node_);  // counters + wall time + span hook
          return ExecResult::kDone;
        }
        have_outer_ = true;
        inner_pos_ = 0;
      }
      while (inner_pos_ < inner_rows_.size()) {
        if (!ctx_->meter.Charge(price_.op)) return ExecResult::kAborted;
        const Row& rrow = inner_rows_[inner_pos_++];
        Row combined = outer_row_;
        combined.insert(combined.end(), rrow.begin(), rrow.end());
        bool ok = true;
        for (const auto& eq : conditions_) {
          if (combined[eq.left_pos] != combined[eq.right_pos]) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        if (!ctx_->meter.Charge(price_.tuple)) return ExecResult::kAborted;
        nc.tuples_out++;
        *out = std::move(combined);
        return ExecResult::kRow;
      }
      have_outer_ = false;
    }
  }

 private:
  const PlanNode* node_;
  ExecContext* ctx_;
  const FixedPrices price_;
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  std::vector<BoundEquality> conditions_;

  bool materialized_ = false;
  std::vector<Row> inner_rows_;
  Row outer_row_;
  bool have_outer_ = false;
  size_t inner_pos_ = 0;
};

// ---------------------------------------------------------------------------
// Hash aggregate
// ---------------------------------------------------------------------------

class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(const PlanNode* node, ExecContext* ctx,
                  std::unique_ptr<Operator> child,
                  std::vector<int> group_positions, int agg_position,
                  AggregateSpec::Func func)
      : node_(node),
        ctx_(ctx),
        price_(ctx->cost_model->params()),
        child_(std::move(child)),
        group_positions_(std::move(group_positions)),
        agg_position_(agg_position),
        func_(func) {
    // Output: group columns (original identities) + one synthetic result
    // slot.
    for (int pos : group_positions_) {
      schema_.push_back(child_->schema()[pos]);
    }
    schema_.push_back({-1, -1});  // aggregate value
  }

  ExecResult Next(Row* out) override {
    // Re-pulling after a budget abort is a checked no-op (see operators.h):
    // the meter stays tripped, so report kAborted again without charging or
    // moving any counter.
    if (ctx_->meter.exhausted()) return ExecResult::kAborted;
    NodeCounters& nc = ctx_->instr.ForNode(node_);

    if (!built_) {
      const FixedCost build_charge =
          AggregateBuildCharge(ctx_->cost_model->params());
      Row r;
      for (;;) {
        const ExecResult st = child_->Next(&r);
        if (st == ExecResult::kAborted) return ExecResult::kAborted;
        if (st == ExecResult::kDone) break;
        if (!ctx_->meter.Charge(build_charge)) return ExecResult::kAborted;
        Row key(group_positions_.size());
        for (size_t i = 0; i < group_positions_.size(); ++i) {
          key[i] = r[group_positions_[i]];
        }
        const int64_t value = agg_position_ >= 0 ? r[agg_position_] : 1;
        auto [it, inserted] = groups_.try_emplace(std::move(key), 0);
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
      // Scalar COUNT over empty input emits one zero row (SQL semantics);
      // scalar SUM/MIN/MAX over empty input emit nothing (the engine has no
      // NULL representation).
      if (groups_.empty() && group_positions_.empty() &&
          func_ == AggregateSpec::Func::kCount) {
        groups_.try_emplace(Row{}, 0);
      }
      // Emit in ascending group-key order. Hash-map iteration order is
      // unspecified (bouquet-determinism), and under a budget abort the set
      // of rows emitted before the trip would depend on it; sorting makes
      // the output — and therefore the abort-truncated prefix — identical
      // across engines and standard libraries. The batch engine sorts the
      // same way.
      // NOLINTNEXTLINE(bouquet-determinism): drained into the sort below
      emit_rows_.assign(std::make_move_iterator(groups_.begin()),
                        std::make_move_iterator(groups_.end()));
      std::sort(emit_rows_.begin(), emit_rows_.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      groups_.clear();
      emit_ = 0;
      built_ = true;
    }

    if (emit_ == emit_rows_.size()) {
      ctx_->instr.FinishNode(node_);  // counters + wall time + span hook
      return ExecResult::kDone;
    }
    if (!ctx_->meter.Charge(price_.tuple)) return ExecResult::kAborted;
    const auto& row = emit_rows_[emit_];
    out->assign(row.first.begin(), row.first.end());
    out->push_back(row.second);
    ++emit_;
    nc.tuples_out++;
    return ExecResult::kRow;
  }

 private:
  struct RowHash {
    size_t operator()(const Row& r) const {
      size_t h = 1469598103934665603ULL;
      for (int64_t v : r) {
        h ^= static_cast<size_t>(v);
        h *= 1099511628211ULL;
      }
      return h;
    }
  };

  const PlanNode* node_;
  ExecContext* ctx_;
  const FixedPrices price_;
  std::unique_ptr<Operator> child_;
  std::vector<int> group_positions_;
  int agg_position_;
  AggregateSpec::Func func_;

  bool built_ = false;
  std::unordered_map<Row, int64_t, RowHash> groups_;
  /// Sorted (group key, aggregate) pairs; emission order must be
  /// deterministic, see the comment at the sort.
  std::vector<std::pair<Row, int64_t>> emit_rows_;
  size_t emit_ = 0;
};

// The scalar engine's operator classes, for the one binder (binding.h).
struct ScalarEngine {
  using Op = Operator;
  using State = ExecContext;
  static const ExecContext* Context(const ExecContext* ctx) { return ctx; }
  using SeqScan = SeqScanOp;
  using IndexScan = IndexScanOp;
  using HashJoin = HashJoinOp;
  using MergeJoin = MergeJoinOp;
  using IndexNLJoin = IndexNLJoinOp;
  using MaterialNLJoin = MaterialNLJoinOp;
  using HashAggregate = HashAggregateOp;
};

}  // namespace

Result<std::unique_ptr<Operator>> BuildExecutor(const PlanNode& root,
                                                ExecContext* ctx) {
  assert(ctx->query && ctx->db && ctx->catalog && ctx->cost_model);
  return exec_internal::BindPlan<ScalarEngine>(root, ctx);
}

ExecResult DrainOperator(Operator* op, const RowSink& sink,
                         int64_t* emitted) {
  int64_t count = 0;
  Row r;
  for (;;) {
    const ExecResult st = op->Next(&r);
    if (st != ExecResult::kRow) {
      *emitted = count;
      return st;
    }
    ++count;
    sink.Put(r);
  }
}

}  // namespace bouquet
