#include "runtime/rt_treap.hpp"

#include "runtime/rt_map.hpp"

namespace pwf::rt::treap {

namespace pl = pipelined;

Cell* union_treaps(Store& st, Cell* a, Cell* b) {
  return map::union_maps(st, a, b);
}

Cell* diff_treaps(Store& st, Cell* a, Cell* b) {
  return map::diff_maps(st, a, b);
}

Cell* intersect_treaps(Store& st, Cell* a, Cell* b) {
  return map::intersect_maps(st, a, b);
}

void split_treaps(Store& st, Cell* in, Key pivot, Cell* outL, Cell* outR) {
  map::split_maps(st, in, pivot, outL, outR);
}

Cell* join_treaps(Store& st, Cell* a, Cell* b) {
  return map::join_maps(st, a, b);
}

Node* union_strict_blocking(Store& st, Node* a, Node* b) {
  pl::RtExec ex;
  Cell* result = st.cell();
  ex.fork(pl::deliver(pl::treap::union_strict(ex, st, a, b), result));
  return result->wait_blocking();
}

Node* diff_strict_blocking(Store& st, Node* a, Node* b) {
  pl::RtExec ex;
  Cell* result = st.cell();
  ex.fork(pl::deliver(pl::treap::diff_strict(ex, st, a, b), result));
  return result->wait_blocking();
}

std::vector<Key> wait_inorder(Cell* root_cell) {
  return map::wait_items(root_cell);
}

pl::treap::CacheEconomy cache_economy(Cell* root_cell) {
  return map::cache_economy(root_cell);
}

bool validate(const Store& st, Cell* root_cell) {
  // Force completion of every reachable cell, then run the shared peek-based
  // validator (peek asserts written(), which holds after the wait walk).
  wait_inorder(root_cell);
  return pl::treap::validate(st, root_cell->wait_blocking());
}

}  // namespace pwf::rt::treap
