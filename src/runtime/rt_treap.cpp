#include "runtime/rt_treap.hpp"

#include "pipelined/treap_walk.hpp"

namespace pwf::rt::treap {

namespace pl = pipelined;

Cell* union_treaps(Store& st, Cell* a, Cell* b) {
  pl::RtExec ex;
  Cell* out = st.cell();
  ex.fork_after(a, pl::treap::union_into(ex, st, a, b, out));
  return out;
}

Cell* diff_treaps(Store& st, Cell* a, Cell* b) {
  pl::RtExec ex;
  Cell* out = st.cell();
  ex.fork_after(a, pl::treap::diff_into(ex, st, a, b, out));
  return out;
}

Cell* intersect_treaps(Store& st, Cell* a, Cell* b) {
  pl::RtExec ex;
  Cell* out = st.cell();
  ex.fork_after(a, pl::treap::intersect_into(ex, st, a, b, out));
  return out;
}

void split_treaps(Store& st, Cell* in, Key pivot, Cell* outL, Cell* outR) {
  pl::RtExec ex;
  ex.fork(pl::treap::split_at(ex, st, pivot, in, outL, outR));
  if (Scheduler* s = Scheduler::current()) s->note_rebalance();
}

Cell* join_treaps(Store& st, Cell* a, Cell* b) {
  pl::RtExec ex;
  Cell* out = st.cell();
  ex.fork(pl::treap::join_entry(ex, st, a, b, out));
  if (Scheduler* s = Scheduler::current()) s->note_rebalance();
  return out;
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

// The full-tree walks are the shared explicit-stack visitors from
// pipelined/treap_walk.hpp with a wait_blocking force: they run on the
// *caller's* stack, not a coroutine frame, so they must not recurse (a
// service-layer treap is arbitrarily chain-shaped while a pipeline is
// mid-flight), and each forced cell parks the caller until its producer
// publishes — the consumer pipelines with in-flight construction.
std::vector<Key> wait_inorder(Cell* root_cell) {
  std::vector<Key> out;
  pl::treap::visit_items(root_cell, [](auto* c) { return c->wait_blocking(); },
                         [&](Key k, const auto&) { out.push_back(k); });
  return out;
}

pl::treap::CacheEconomy cache_economy(Cell* root_cell) {
  pl::treap::CacheEconomy ce;
  pl::treap::visit_nodes(root_cell, [](auto* c) { return c->wait_blocking(); },
                         [&](Node* n) {
                           if (pl::treap::is_leaf(n)) {
                             ++ce.leaf_chunks;
                             ce.leaf_keys += n->count;
                           } else {
                             ++ce.internal_nodes;
                           }
                         });
  return ce;
}

bool validate(const Store& st, Cell* root_cell) {
  // Force completion of every reachable cell, then run the shared peek-based
  // validator (peek asserts written(), which holds after the wait walk).
  wait_inorder(root_cell);
  return pl::treap::validate(st, root_cell->wait_blocking());
}

}  // namespace pwf::rt::treap
