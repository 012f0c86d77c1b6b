#include "optimizer/split_list.h"

#include "query/join_graph.h"

namespace bouquet {

SplitList BuildSplitList(const CardinalityContext& card) {
  const QuerySpec& query = card.query();
  SplitList list;
  list.join_left_key.reserve(query.joins.size());
  list.join_right_key.reserve(query.joins.size());
  for (const auto& j : query.joins) {
    const int lt = query.TableIndex(j.left_table);
    const int rt = query.TableIndex(j.right_table);
    list.join_left_key.push_back(
        EncodeOrder(lt, card.table(lt).ColumnIndex(j.left_column)));
    list.join_right_key.push_back(
        EncodeOrder(rt, card.table(rt).ColumnIndex(j.right_column)));
  }

  const JoinGraph graph(query);
  const uint64_t full = uint64_t{1} << card.num_tables();
  const auto& lmask = card.join_lmasks();
  const auto& rmask = card.join_rmasks();
  std::vector<char> connected(full, 0);
  for (uint64_t s = 1; s < full; ++s) {
    connected[s] = graph.IsConnectedSubset(s) ? 1 : 0;
  }

  for (uint64_t s = 3; s < full; ++s) {
    if ((s & (s - 1)) == 0 || !connected[s]) continue;
    SplitList::Composite c;
    c.subset = s;
    c.dims = card.SubsetDimMask(s);
    c.split_begin = static_cast<int>(list.splits.size());
    for (uint64_t s1 = (s - 1) & s; s1 != 0; s1 = (s1 - 1) & s) {
      const uint64_t s2 = s ^ s1;
      if (!connected[s1] || !connected[s2]) continue;
      SplitList::Split split;
      split.s1 = s1;
      split.s2 = s2;
      split.cross_begin = static_cast<int>(list.crossings.size());
      const bool inner_single = (s2 & (s2 - 1)) == 0;
      const TableInfo* inner =
          inner_single ? &card.table(__builtin_ctzll(s2)) : nullptr;
      for (size_t j = 0; j < lmask.size(); ++j) {
        const bool lr = (lmask[j] & s1) && (rmask[j] & s2);
        const bool rl = (lmask[j] & s2) && (rmask[j] & s1);
        if (!lr && !rl) continue;
        const bool left_holds_l = (lmask[j] & s1) != 0;
        SplitList::Crossing x;
        x.join = static_cast<int>(j);
        x.left_key =
            left_holds_l ? list.join_left_key[j] : list.join_right_key[j];
        x.right_key =
            left_holds_l ? list.join_right_key[j] : list.join_left_key[j];
        x.index_nl = inner != nullptr &&
                     inner->columns[OrderColumn(x.right_key)].has_index;
        list.crossings.push_back(x);
      }
      split.cross_end = static_cast<int>(list.crossings.size());
      const int num_cross = split.cross_end - split.cross_begin;
      if (num_cross == 0) continue;
      if (inner_single) {
        split.inner_table = __builtin_ctzll(s2);
        split.inner_quals =
            static_cast<int>(card.table_filters(split.inner_table).size()) +
            num_cross - 1;
      }
      list.splits.push_back(split);
    }
    c.split_end = static_cast<int>(list.splits.size());
    list.composites.push_back(c);
  }
  return list;
}

}  // namespace bouquet
