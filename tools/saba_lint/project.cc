#include "tools/saba_lint/project.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace saba {
namespace lint {
namespace {

bool StartsWith(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool UnderDir(const std::string& rel_path, const std::string& dir) {
  return rel_path.size() > dir.size() + 1 && StartsWith(rel_path, dir) &&
         rel_path[dir.size()] == '/';
}

// Harness roots sit above every layer: they may include anything, nothing
// layered may include them.
bool IsHarnessPath(const std::string& path) {
  for (const char* root : {"bench/", "tests/", "examples/", "tools/"}) {
    if (StartsWith(path, root)) {
      return true;
    }
  }
  return false;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
}

// ---------------------------------------------------------------------------
// R9: layer DAG + include cycles.
// ---------------------------------------------------------------------------

void CheckLayering(const std::vector<ScannedTu>& tus, const std::vector<TuModel>& models,
                   const LayerMap& layers, std::vector<Finding>* findings) {
  for (size_t t = 0; t < models.size(); ++t) {
    const TuModel& model = models[t];
    const std::string from_dir = layers.DirOf(model.rel_path);
    if (from_dir.empty()) {
      continue;  // Harness files (tests/bench/examples/tools) are unconstrained.
    }
    const int from_rank = layers.RankOf(model.rel_path);
    for (const IncludeEdge& inc : model.includes) {
      if (IsSuppressed(tus[t].scanned, inc.line, "R9")) {
        continue;
      }
      if (IsHarnessPath(inc.target)) {
        findings->push_back(
            {model.display_path, inc.line, "R9",
             "layered code includes harness header \"" + inc.target + "\"; " + from_dir +
                 " is below the bench/tests/examples/tools rank in the layer DAG "
                 "(tools/saba_lint/layers.txt, DESIGN.md §9)"});
        continue;
      }
      const std::string to_dir = layers.DirOf(inc.target);
      if (to_dir.empty()) {
        if (StartsWith(inc.target, "src/")) {
          findings->push_back(
              {model.display_path, inc.line, "R9",
               "include \"" + inc.target +
                   "\" is not under any layer in tools/saba_lint/layers.txt; the map is "
                   "the single source of truth for the §9 DAG — add the new directory "
                   "to it at the right rank"});
        }
        continue;
      }
      if (to_dir == from_dir) {
        continue;
      }
      const int to_rank = layers.RankOf(inc.target);
      if (to_rank > from_rank) {
        findings->push_back(
            {model.display_path, inc.line, "R9",
             "upward include \"" + inc.target + "\": " + from_dir + " is below " + to_dir +
                 " in the layer DAG and may depend only on lower layers "
                 "(tools/saba_lint/layers.txt, DESIGN.md §9)"});
      } else if (to_rank == from_rank) {
        findings->push_back(
            {model.display_path, inc.line, "R9",
             "lateral include \"" + inc.target + "\": " + from_dir + " and " + to_dir +
                 " are peer layers and may not include each other "
                 "(tools/saba_lint/layers.txt, DESIGN.md §9)"});
      }
    }
  }
}

// Tarjan SCC over the resolved include graph; every component with more than
// one file (or a self-include) is a cycle. One finding per cycle, anchored
// at the lexicographically-smallest member's include into the cycle, so the
// report is deterministic no matter the scan order.
void CheckIncludeCycles(const std::vector<ScannedTu>& tus, const std::vector<TuModel>& models,
                        std::vector<Finding>* findings) {
  const size_t n = models.size();
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < n; ++i) {
    index[models[i].rel_path] = i;
  }
  std::vector<std::vector<size_t>> adj(n);
  for (size_t i = 0; i < n; ++i) {
    for (const IncludeEdge& inc : models[i].includes) {
      const auto it = index.find(inc.target);
      if (it != index.end()) {
        adj[i].push_back(it->second);
      }
    }
  }

  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<size_t> stack;
  int timer = 0;
  std::vector<std::vector<size_t>> sccs;

  std::function<void(size_t)> strongconnect = [&](size_t v) {
    disc[v] = low[v] = timer++;
    stack.push_back(v);
    on_stack[v] = true;
    for (const size_t w : adj[v]) {
      if (disc[w] < 0) {
        strongconnect(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], disc[w]);
      }
    }
    if (low[v] == disc[v]) {
      std::vector<size_t> scc;
      while (true) {
        const size_t w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        scc.push_back(w);
        if (w == v) {
          break;
        }
      }
      const bool self_loop =
          scc.size() == 1 && std::count(adj[scc[0]].begin(), adj[scc[0]].end(), scc[0]) > 0;
      if (scc.size() > 1 || self_loop) {
        sccs.push_back(std::move(scc));
      }
    }
  };
  for (size_t v = 0; v < n; ++v) {
    if (disc[v] < 0) {
      strongconnect(v);
    }
  }

  for (std::vector<size_t>& scc : sccs) {
    std::sort(scc.begin(), scc.end(), [&](size_t a, size_t b) {
      return models[a].rel_path < models[b].rel_path;
    });
    const size_t anchor = scc[0];
    const std::set<size_t> members(scc.begin(), scc.end());
    int line = 1;
    for (const IncludeEdge& inc : models[anchor].includes) {
      const auto it = index.find(inc.target);
      if (it != index.end() && members.count(it->second) != 0) {
        line = inc.line;
        break;
      }
    }
    if (IsSuppressed(tus[anchor].scanned, line, "R9")) {
      continue;
    }
    std::ostringstream cycle;
    for (size_t i = 0; i < scc.size(); ++i) {
      cycle << (i > 0 ? " <-> " : "") << models[scc[i]].rel_path;
    }
    findings->push_back({models[anchor].display_path, line, "R9",
                         "include cycle among {" + cycle.str() +
                             "}; the include graph must stay a DAG "
                             "(tools/saba_lint/layers.txt, DESIGN.md §9)"});
  }
}

// ---------------------------------------------------------------------------
// R10: shared-state audit.
// ---------------------------------------------------------------------------

void CheckSharedState(const std::vector<TuModel>& models, std::vector<Finding>* findings) {
  for (const TuModel& model : models) {
    if (StartsWith(model.rel_path, "src/sim/")) {
      continue;  // The simulator substrate (pool, log) is the audited home.
    }
    for (const MutableStateDecl& decl : model.mutable_state) {
      if (decl.annotated) {
        continue;
      }
      const char* kind = decl.static_local ? "static local" : "namespace-scope variable";
      findings->push_back(
          {model.display_path, decl.line, "R10",
           std::string("mutable ") + kind + " '" + decl.name +
               "'; unsynchronized shared state reachable from pooled workers breaks "
               "determinism and the TSan bill of health — make it const/constexpr, move "
               "it behind a worker-confined structure, or annotate the audited "
               "order-independence argument with // saba-lint: shared-state-ok(<reason>) "
               "(DESIGN.md §7.3)"});
    }
  }
}

// ---------------------------------------------------------------------------
// R11: WorkerPool capture audit.
// ---------------------------------------------------------------------------

void CheckPoolCaptures(const std::vector<TuModel>& models, std::vector<Finding>* findings) {
  std::set<std::string> pool_names;
  for (const TuModel& model : models) {
    pool_names.insert(model.pool_typed_names.begin(), model.pool_typed_names.end());
  }
  for (const TuModel& model : models) {
    for (const PoolDispatch& dispatch : model.dispatches) {
      if (pool_names.count(dispatch.receiver) == 0) {
        continue;  // Run() on something that is not a WorkerPool anywhere.
      }
      if (dispatch.annotated) {
        continue;
      }
      for (const DispatchArg& arg : dispatch.args) {
        const LambdaExpr* lambda = nullptr;
        if (arg.lambda_index >= 0) {
          lambda = &model.lambdas[static_cast<size_t>(arg.lambda_index)];
        } else if (!arg.name.empty()) {
          for (const LambdaExpr& candidate : model.lambdas) {
            if (candidate.assigned_name == arg.name && candidate.line <= dispatch.line) {
              lambda = &candidate;
            }
          }
        }
        if (lambda == nullptr || !lambda->captures_by_ref || lambda->annotated) {
          continue;
        }
        const std::string how =
            arg.lambda_index >= 0 ? "" : " (via local '" + arg.name + "', line " +
                                             std::to_string(lambda->line) + ")";
        findings->push_back(
            {model.display_path, dispatch.line, "R11",
             "by-reference capture flows into WorkerPool::Run" + how +
                 "; every captured reference is shared across worker threads, so the "
                 "§7.3 confinement argument (index-owned writes) must be stated explicitly — "
                 "annotate the dispatch with // saba-lint: pool-capture-ok(<reason>) or "
                 "capture by value"});
      }
    }
  }
}

}  // namespace

int LayerMap::RankOf(const std::string& rel_path) const {
  for (const Dir& dir : dirs) {
    if (UnderDir(rel_path, dir.prefix)) {
      return dir.rank;
    }
  }
  return -1;
}

std::string LayerMap::DirOf(const std::string& rel_path) const {
  for (const Dir& dir : dirs) {
    if (UnderDir(rel_path, dir.prefix)) {
      return dir.prefix;
    }
  }
  return "";
}

bool ParseLayerMap(std::string_view content, LayerMap* map, std::string* error) {
  map->dirs.clear();
  std::set<std::string> seen;
  int rank = 0;
  int line_no = 0;
  std::istringstream in{std::string(content)};
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    std::istringstream fields(line);
    std::string dir;
    bool any = false;
    while (fields >> dir) {
      while (!dir.empty() && dir.back() == '/') {
        dir.pop_back();
      }
      if (dir.empty() || dir.find("//") != std::string::npos) {
        *error = "layers.txt line " + std::to_string(line_no) + ": malformed directory";
        return false;
      }
      if (!seen.insert(dir).second) {
        *error = "layers.txt line " + std::to_string(line_no) + ": duplicate layer '" + dir + "'";
        return false;
      }
      map->dirs.push_back({dir, rank});
      any = true;
    }
    if (any) {
      ++rank;
    }
  }
  if (map->dirs.empty()) {
    *error = "layers.txt declares no layers";
    return false;
  }
  return true;
}

std::vector<Finding> CheckProjectRules(const std::vector<ScannedTu>& tus,
                                       const std::vector<TuModel>& models,
                                       const LayerMap* layers) {
  std::vector<Finding> findings;
  if (layers != nullptr) {
    CheckLayering(tus, models, *layers, &findings);
    CheckIncludeCycles(tus, models, &findings);
  }
  CheckSharedState(models, &findings);
  CheckPoolCaptures(models, &findings);
  SortFindings(&findings);
  return findings;
}

std::vector<std::string> LayerGraphEdges(const std::vector<TuModel>& models,
                                         const LayerMap& layers) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const TuModel& model : models) {
    const std::string from_dir = layers.DirOf(model.rel_path);
    if (from_dir.empty()) {
      continue;
    }
    for (const IncludeEdge& inc : model.includes) {
      const std::string to_dir = layers.DirOf(inc.target);
      if (to_dir.empty() || to_dir == from_dir) {
        continue;
      }
      ++counts[{from_dir, to_dir}];
    }
  }
  std::vector<std::string> edges;
  edges.reserve(counts.size());
  for (const auto& [edge, count] : counts) {
    edges.push_back(edge.first + " -> " + edge.second + " (" + std::to_string(count) + ")");
  }
  return edges;
}

}  // namespace lint
}  // namespace saba
