#include "src/core/lock_order.h"

#include <algorithm>
#include <functional>
#include <set>

#include "src/core/held_locks.h"
#include "src/db/schema.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace lockdoc {

std::string LockWitness::ToString() const {
  if (!has_range) {
    return StrFormat("0x%llx", static_cast<unsigned long long>(addr));
  }
  return StrFormat("0x%llx[0x%llx,0x%llx)", static_cast<unsigned long long>(addr),
                   static_cast<unsigned long long>(range_start),
                   static_cast<unsigned long long>(range_end));
}

std::string LockOrderCycle::ToString() const {
  std::string text;
  for (const LockClass& lock : classes) {
    text += lock.ToString() + " -> ";
  }
  if (!classes.empty()) {
    text += classes.front().ToString();
  }
  return text + StrFormat(" (min support %llu)", static_cast<unsigned long long>(min_support));
}

std::string LockOrderCyclePath::ToString() const {
  std::string text;
  for (const LockOrderEdge& edge : edges) {
    text += edge.from.ToString() + " -> ";
  }
  if (!edges.empty()) {
    text += edges.front().from.ToString();
  }
  return text + StrFormat(" (min support %llu)", static_cast<unsigned long long>(min_support));
}

LockOrderGraph LockOrderGraph::Build(const Database& db, const TypeRegistry& registry) {
  LockOrderGraph graph;
  const Table& txns = db.table(LockDocSchema::kTxns);
  const Table& txn_locks = db.table(LockDocSchema::kTxnLocks);
  const Table& locks = db.table(LockDocSchema::kLocks);

  const size_t kTlTxn = txn_locks.ColumnIndex("txn_id");
  const size_t kTlPos = txn_locks.ColumnIndex("position");
  const size_t kTlLock = txn_locks.ColumnIndex("lock_id");
  const size_t kTlAcq = txn_locks.ColumnIndex("acquire_seq");
  const size_t kTlFile = txn_locks.ColumnIndex("file_sid");
  const size_t kTlLine = txn_locks.ColumnIndex("line");
  const size_t kTxnStart = txns.ColumnIndex("start_seq");
  const size_t kTxnNLocks = txns.ColumnIndex("n_locks");
  const size_t kLockAddr = locks.ColumnIndex("addr");

  // Held ranges for range-lock witnesses (optional table).
  const Table* txn_lock_ranges = db.HasTable(LockDocSchema::kTxnLockRanges)
                                     ? &db.table(LockDocSchema::kTxnLockRanges)
                                     : nullptr;
  size_t kTlrTxn = 0, kTlrPos = 0, kTlrStart = 0, kTlrEnd = 0;
  if (txn_lock_ranges != nullptr) {
    kTlrTxn = txn_lock_ranges->ColumnIndex("txn_id");
    kTlrPos = txn_lock_ranges->ColumnIndex("position");
    kTlrStart = txn_lock_ranges->ColumnIndex("range_start");
    kTlrEnd = txn_lock_ranges->ColumnIndex("range_end");
  }

  // Cache of lock row -> class. Without a reference object, an embedded
  // lock is EO(member in type).
  const LockClassifier classifier(db, registry);
  std::map<uint64_t, LockClass> class_cache;
  auto class_of = [&](uint64_t lock_row) -> const LockClass& {
    auto it = class_cache.find(lock_row);
    if (it == class_cache.end()) {
      it = class_cache.emplace(lock_row, classifier.ClassifyScoped(lock_row, false)).first;
    }
    return it->second;
  };

  auto add_edge = [&](const LockClass& from, const LockClass& to, uint64_t example_seq,
                      uint64_t example_file_sid, uint64_t example_line,
                      const LockWitness& witness_from, const LockWitness& witness_to) {
    auto key = std::make_pair(from, to);
    auto it = graph.edge_index_.find(key);
    if (it == graph.edge_index_.end()) {
      LockOrderEdge edge;
      edge.from = from;
      edge.to = to;
      edge.support = 1;
      edge.example_seq = example_seq;
      edge.example_file_sid = example_file_sid;
      edge.example_line = example_line;
      // The first observation supplies the instance witness; later ones
      // only bump the support, keeping the witness deterministic.
      edge.witness_from = witness_from;
      edge.witness_to = witness_to;
      graph.edge_index_.emplace(key, graph.edges_.size());
      graph.edges_.push_back(std::move(edge));
    } else {
      ++graph.edges_[it->second].support;
    }
  };

  std::vector<LockWitness> witnesses;
  for (uint64_t txn = 0; txn < txns.row_count(); ++txn) {
    uint64_t n_locks = txns.GetUint64(txn, kTxnNLocks);
    if (n_locks < 2) {
      continue;
    }
    std::vector<RowId> rows = txn_locks.LookupEqual(kTlTxn, txn);
    std::vector<uint64_t> ordered(rows.size());
    witnesses.assign(rows.size(), LockWitness{});
    uint64_t last_acquire = 0;
    uint64_t last_file_sid = 0;
    uint64_t last_line = 0;
    for (RowId row : rows) {
      uint64_t pos = txn_locks.GetUint64(row, kTlPos);
      LOCKDOC_CHECK(pos < ordered.size());
      ordered[pos] = txn_locks.GetUint64(row, kTlLock);
      witnesses[pos].addr = locks.GetUint64(ordered[pos], kLockAddr);
      if (pos + 1 == ordered.size()) {
        last_acquire = txn_locks.GetUint64(row, kTlAcq);
        last_file_sid = txn_locks.GetUint64(row, kTlFile);
        last_line = txn_locks.GetUint64(row, kTlLine);
      }
    }
    if (txn_lock_ranges != nullptr) {
      for (RowId row : txn_lock_ranges->LookupEqual(kTlrTxn, txn)) {
        uint64_t pos = txn_lock_ranges->GetUint64(row, kTlrPos);
        LOCKDOC_CHECK(pos < witnesses.size());
        witnesses[pos].has_range = true;
        witnesses[pos].range_start = txn_lock_ranges->GetUint64(row, kTlrStart);
        witnesses[pos].range_end = txn_lock_ranges->GetUint64(row, kTlrEnd);
      }
    }
    // Only transactions opened by the innermost lock's acquisition count;
    // transactions re-minted by out-of-order releases would double-count
    // orderings that were already recorded.
    if (txns.GetUint64(txn, kTxnStart) != last_acquire) {
      continue;
    }
    const LockClass& acquired = class_of(ordered.back());
    for (size_t i = 0; i + 1 < ordered.size(); ++i) {
      add_edge(class_of(ordered[i]), acquired, last_acquire, last_file_sid, last_line,
               witnesses[i], witnesses.back());
    }
  }
  return graph;
}

std::vector<std::pair<LockOrderEdge, LockOrderEdge>> LockOrderGraph::ConflictingPairs() const {
  std::vector<std::pair<LockOrderEdge, LockOrderEdge>> conflicts;
  for (const LockOrderEdge& edge : edges_) {
    if (!(edge.from < edge.to)) {
      continue;  // Report each unordered pair once; skip self-loops.
    }
    auto reverse = edge_index_.find(std::make_pair(edge.to, edge.from));
    if (reverse == edge_index_.end()) {
      continue;
    }
    const LockOrderEdge& back = edges_[reverse->second];
    // Rarer direction first: it is usually the buggy one.
    if (back.support < edge.support) {
      conflicts.emplace_back(back, edge);
    } else {
      conflicts.emplace_back(edge, back);
    }
  }
  return conflicts;
}

namespace {

// Shared node/adjacency view of the class graph. Node ids are
// first-appearance order over edges_, which is deterministic because Build
// walks transactions in id order.
struct GraphView {
  std::vector<LockClass> nodes;
  std::map<LockClass, size_t> node_index;
  // adjacency[u] = (v, edge index into edges_); self-loops excluded.
  std::vector<std::vector<std::pair<size_t, size_t>>> adjacency;

  explicit GraphView(const std::vector<LockOrderEdge>& edges) {
    for (const LockOrderEdge& edge : edges) {
      for (const LockClass& lock : {edge.from, edge.to}) {
        if (node_index.emplace(lock, nodes.size()).second) {
          nodes.push_back(lock);
        }
      }
    }
    adjacency.resize(nodes.size());
    for (size_t e = 0; e < edges.size(); ++e) {
      if (edges[e].from == edges[e].to) {
        continue;
      }
      adjacency[node_index[edges[e].from]].emplace_back(node_index[edges[e].to], e);
    }
  }
};

// Iterative Tarjan SCC; returns the component id of each node. Component
// ids are assigned in completion order, which is deterministic for a fixed
// node/adjacency order.
std::vector<size_t> TarjanScc(const GraphView& view, size_t* component_count) {
  const size_t n = view.nodes.size();
  constexpr size_t kUnvisited = static_cast<size_t>(-1);
  std::vector<size_t> index(n, kUnvisited);
  std::vector<size_t> lowlink(n, 0);
  std::vector<size_t> component(n, kUnvisited);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  size_t next_index = 0;
  size_t components = 0;

  struct Frame {
    size_t node;
    size_t edge_cursor;
  };
  std::vector<Frame> call_stack;
  for (size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) {
      continue;
    }
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      size_t u = frame.node;
      if (frame.edge_cursor < view.adjacency[u].size()) {
        size_t v = view.adjacency[u][frame.edge_cursor].first;
        ++frame.edge_cursor;
        if (index[v] == kUnvisited) {
          call_stack.push_back({v, 0});
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
        continue;
      }
      if (lowlink[u] == index[u]) {
        while (true) {
          size_t v = stack.back();
          stack.pop_back();
          on_stack[v] = false;
          component[v] = components;
          if (v == u) {
            break;
          }
        }
        ++components;
      }
      call_stack.pop_back();
      if (!call_stack.empty()) {
        size_t parent = call_stack.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  *component_count = components;
  return component;
}

}  // namespace

std::vector<std::vector<LockClass>> LockOrderGraph::StronglyConnectedComponents() const {
  GraphView view(edges_);
  size_t component_count = 0;
  std::vector<size_t> component = TarjanScc(view, &component_count);
  std::vector<std::vector<LockClass>> grouped(component_count);
  for (size_t node = 0; node < view.nodes.size(); ++node) {
    grouped[component[node]].push_back(view.nodes[node]);
  }
  std::vector<std::vector<LockClass>> result;
  for (std::vector<LockClass>& classes : grouped) {
    if (classes.size() < 2) {
      continue;  // A singleton without a self-edge cannot carry a cycle.
    }
    std::sort(classes.begin(), classes.end());
    result.push_back(std::move(classes));
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<LockOrderCycle> LockOrderGraph::FindCycles(size_t max_length) const {
  std::vector<LockOrderCycle> cycles;
  for (const LockOrderCyclePath& path : FindCyclePaths(max_length, /*max_paths=*/1024)) {
    LockOrderCycle cycle;
    cycle.min_support = path.min_support;
    for (const LockOrderEdge& edge : path.edges) {
      cycle.classes.push_back(edge.from);
    }
    cycles.push_back(std::move(cycle));
  }
  return cycles;
}

std::vector<LockOrderCyclePath> LockOrderGraph::FindCyclePaths(size_t max_length,
                                                               size_t max_paths) const {
  GraphView view(edges_);
  size_t component_count = 0;
  std::vector<size_t> component = TarjanScc(view, &component_count);

  std::vector<LockOrderCyclePath> paths;
  std::set<std::vector<size_t>> seen;

  // Anchor-DFS per node, restricted to the anchor's SCC: a cycle through
  // `start` can only visit nodes strongly connected to it, so the search
  // never leaves the component — this is what keeps the pass scalable on
  // large, mostly acyclic graphs. Only nodes with index >= start are
  // visited so each elementary cycle is enumerated exactly once (its
  // smallest node is the anchor).
  std::vector<size_t> path;        // Node ids.
  std::vector<size_t> path_edges;  // Edge indices, parallel to transitions.
  std::vector<bool> on_path(view.nodes.size(), false);

  std::function<void(size_t, size_t)> dfs = [&](size_t start, size_t current) {
    if (path.size() > max_length || paths.size() >= max_paths) {
      return;
    }
    for (const auto& [next, edge_index] : view.adjacency[current]) {
      if (paths.size() >= max_paths) {
        return;
      }
      if (component[next] != component[start]) {
        continue;
      }
      if (next == start && path.size() >= 2) {
        if (seen.insert(path).second) {
          LockOrderCyclePath cycle;
          cycle.min_support = edges_[edge_index].support;
          for (size_t e : path_edges) {
            cycle.edges.push_back(edges_[e]);
            cycle.min_support = std::min(cycle.min_support, edges_[e].support);
          }
          cycle.edges.push_back(edges_[edge_index]);
          paths.push_back(std::move(cycle));
        }
        continue;
      }
      if (next <= start || on_path[next] || path.size() == max_length) {
        continue;
      }
      path.push_back(next);
      path_edges.push_back(edge_index);
      on_path[next] = true;
      dfs(start, next);
      on_path[next] = false;
      path_edges.pop_back();
      path.pop_back();
    }
  };

  for (size_t start = 0; start < view.nodes.size(); ++start) {
    // Skip anchors in trivially acyclic components.
    bool cyclic = false;
    for (size_t node = 0; node < view.nodes.size(); ++node) {
      if (node != start && component[node] == component[start]) {
        cyclic = true;
        break;
      }
    }
    if (!cyclic) {
      continue;
    }
    path = {start};
    path_edges.clear();
    std::fill(on_path.begin(), on_path.end(), false);
    on_path[start] = true;
    dfs(start, start);
  }

  // Rarest first: the weakest edge usually marks the buggy direction. The
  // rendered path breaks ties so the order is fully deterministic.
  std::stable_sort(paths.begin(), paths.end(),
                   [](const LockOrderCyclePath& a, const LockOrderCyclePath& b) {
                     if (a.min_support != b.min_support) {
                       return a.min_support < b.min_support;
                     }
                     if (a.edges.size() != b.edges.size()) {
                       return a.edges.size() < b.edges.size();
                     }
                     return a.ToString() < b.ToString();
                   });
  return paths;
}

std::vector<LockOrderEdge> LockOrderGraph::SelfNesting() const {
  std::vector<LockOrderEdge> result;
  for (const LockOrderEdge& edge : edges_) {
    if (edge.from == edge.to) {
      result.push_back(edge);
    }
  }
  return result;
}

std::string LockOrderGraph::Report(const Database& db, size_t max_edges) const {
  std::vector<LockOrderEdge> sorted = edges_;
  std::sort(sorted.begin(), sorted.end(), [](const LockOrderEdge& a, const LockOrderEdge& b) {
    return a.support > b.support;
  });
  std::string out = StrFormat("lock-order graph: %zu edges\n", sorted.size());
  for (size_t i = 0; i < sorted.size() && i < max_edges; ++i) {
    const LockOrderEdge& edge = sorted[i];
    out += StrFormat("  %-45s -> %-45s n=%-7llu e.g. %s  w: %s -> %s\n",
                     edge.from.ToString().c_str(), edge.to.ToString().c_str(),
                     static_cast<unsigned long long>(edge.support),
                     DbFormatLoc(db, edge.example_file_sid, edge.example_line).c_str(),
                     edge.witness_from.ToString().c_str(), edge.witness_to.ToString().c_str());
  }
  auto conflicts = ConflictingPairs();
  out += StrFormat("ordering conflicts (ABBA candidates): %zu\n", conflicts.size());
  for (const auto& [rare, common] : conflicts) {
    out += StrFormat("  %s -> %s (n=%llu)  vs  reverse (n=%llu) at %s\n",
                     rare.from.ToString().c_str(), rare.to.ToString().c_str(),
                     static_cast<unsigned long long>(rare.support),
                     static_cast<unsigned long long>(common.support),
                     DbFormatLoc(db, rare.example_file_sid, rare.example_line).c_str());
  }
  auto sccs = StronglyConnectedComponents();
  out += StrFormat("strongly connected components with cycles: %zu\n", sccs.size());
  for (const std::vector<LockClass>& scc : sccs) {
    std::string names;
    for (const LockClass& lock : scc) {
      if (!names.empty()) {
        names += ", ";
      }
      names += lock.ToString();
    }
    out += StrFormat("  { %s }\n", names.c_str());
  }
  auto paths = FindCyclePaths();
  out += StrFormat("cycle paths (bounded enumeration): %zu\n", paths.size());
  for (const LockOrderCyclePath& cycle : paths) {
    out += StrFormat("  %s\n", cycle.ToString().c_str());
    for (const LockOrderEdge& edge : cycle.edges) {
      out += StrFormat("    %s -> %s  n=%llu  e.g. %s  w: %s -> %s\n",
                       edge.from.ToString().c_str(), edge.to.ToString().c_str(),
                       static_cast<unsigned long long>(edge.support),
                       DbFormatLoc(db, edge.example_file_sid, edge.example_line).c_str(),
                       edge.witness_from.ToString().c_str(),
                       edge.witness_to.ToString().c_str());
    }
  }
  return out;
}

}  // namespace lockdoc
