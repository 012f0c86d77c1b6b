#include "optimizer/plan_signature.h"

#include <charconv>

namespace bouquet {

namespace {

// Appends `prefix` and the decimal digits of `v` (as "%d" would print them).
void AppendInt(const char* prefix, int v, std::string* out) {
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(prefix);
  out->append(buf, res.ptr);
}

void SigRec(const PlanNode& node, std::string* out) {
  out->append(OpTypeShortName(node.op));
  if (node.is_aggregate()) {
    out->append("(");
    if (node.left) SigRec(*node.left, out);
    out->append(")");
    return;
  }
  if (node.op == OpType::kMergeJoin &&
      (node.left_presorted || node.right_presorted)) {
    // Pre-sorted inputs change the physical behavior (sorts are skipped),
    // so they are part of plan identity.
    out->append("{");
    out->append(node.left_presorted ? "s" : "-");
    out->append(node.right_presorted ? "s" : "-");
    out->append("}");
  }
  if (node.is_scan()) {
    AppendInt("(t", node.table_idx, out);
    if (node.index_filter >= 0) AppendInt(";ix=f", node.index_filter, out);
    if (!node.filter_idxs.empty()) {
      out->append(";");
      for (size_t i = 0; i < node.filter_idxs.size(); ++i) {
        if (i > 0) out->append(",");
        AppendInt("f", node.filter_idxs[i], out);
      }
    }
    out->append(")");
    return;
  }
  out->append("[");
  for (size_t i = 0; i < node.join_idxs.size(); ++i) {
    if (i > 0) out->append(",");
    AppendInt("j", node.join_idxs[i], out);
  }
  if (node.index_join >= 0) AppendInt(";ixj", node.index_join, out);
  out->append("](");
  if (node.left) SigRec(*node.left, out);
  out->append(",");
  if (node.right) SigRec(*node.right, out);
  out->append(")");
}

}  // namespace

std::string PlanSignature(const PlanNode& root) {
  std::string out;
  out.reserve(128);
  SigRec(root, &out);
  return out;
}

}  // namespace bouquet
