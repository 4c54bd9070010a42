#include "core/reduction_index.h"

#include <algorithm>

namespace tpm {

namespace {

uint64_t PairKey(int a, int b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

}  // namespace

int ReductionIndex::AddProcess(ProcessId pid) {
  auto [it, fresh] =
      vertex_of_.try_emplace(pid, static_cast<int>(pids_.size()));
  if (fresh) {
    pids_.push_back(pid);
    active_.push_back(true);
    proc_tokens_.emplace_back();
    out_.emplace_back();
    vertex_keys_.emplace_back();
    vertex_scratch_.emplace_back();
  }
  return it->second;
}

int ReductionIndex::LocalService(ServiceId service) {
  auto [it, fresh] =
      local_of_.try_emplace(service, static_cast<int>(services_.size()));
  if (!fresh) return it->second;
  const int k = it->second;
  services_.push_back(service);
  partners_.emplace_back();
  effect_free_.push_back(spec_->IsEffectFreeService(service));
  conflict_rows_.emplace_back();
  service_tokens_.emplace_back();
  open_.emplace_back();
  service_scratch_.emplace_back();
  auto set_bit = [this](int a, int b) {
    auto& row = conflict_rows_[a];
    const size_t word = static_cast<size_t>(b) >> 6;
    if (row.size() <= word) row.resize(word + 1, 0);
    row[word] |= uint64_t{1} << (b & 63);
  };
  // The relation is symmetric (ConflictSpec::AddConflict).
  for (int j = 0; j <= k; ++j) {
    if (!spec_->ServicesConflict(service, services_[j])) continue;
    set_bit(k, j);
    set_bit(j, k);
    partners_[k].push_back(j);
    if (j != k) partners_[j].push_back(k);
  }
  return k;
}

int ReductionIndex::KeyOf(const ActivityInstance& act, int proc) {
  // Activity ids are dense per definition, starting at 1.
  std::vector<int>& keys = vertex_keys_[proc];
  const size_t slot = static_cast<size_t>(act.activity.value());
  if (keys.size() <= slot) keys.resize(slot + 1, -1);
  if (keys[slot] < 0) {
    keys[slot] = static_cast<int>(key_tokens_.size());
    key_tokens_.emplace_back();
  }
  return keys[slot];
}

int ReductionIndex::LastOfActivity(const ActivityInstance& act,
                                   int proc) const {
  const std::vector<int>& keys = vertex_keys_[proc];
  const size_t slot = static_cast<size_t>(act.activity.value());
  if (slot >= keys.size() || keys[slot] < 0) return -1;
  const std::vector<int>& same = key_tokens_[keys[slot]];
  return same.empty() ? -1 : same.back();
}

int ReductionIndex::PrevSurvivor(int t) const {
  const std::vector<int>& same = key_tokens_[tokens_[t].key];
  auto it = std::lower_bound(same.begin(), same.end(), t);
  while (it != same.begin()) {
    --it;
    if (!tokens_[*it].cancelled) return *it;
  }
  return -1;
}

int ReductionIndex::NextSurvivor(int t) const {
  const std::vector<int>& same = key_tokens_[tokens_[t].key];
  for (auto it = std::upper_bound(same.begin(), same.end(), t);
       it != same.end(); ++it) {
    if (!tokens_[*it].cancelled) return *it;
  }
  return -1;
}

void ReductionIndex::Append(const ActivityInstance& act, ServiceId service,
                            bool present) {
  const int t = static_cast<int>(tokens_.size());
  Token token;
  token.act = act;
  token.proc = AddProcess(act.process);
  token.service = LocalService(service);
  token.key = KeyOf(act, token.proc);
  token.present = present;
  std::vector<int>& same = key_tokens_[token.key];
  const int prev_last = same.empty() ? -1 : same.back();
  if (prev_last < 0 ? act.inverse
                    : tokens_[prev_last].act.inverse == act.inverse) {
    irregular_ = true;
  }
  same.push_back(t);
  tokens_.push_back(token);
  service_tokens_[token.service].push_back(t);
  proc_tokens_[token.proc].push_back(t);
  blocks_.emplace_back();
  conflicts_after_.push_back(0);
  open_slot_.push_back(-1);
  if (!present) return;

  if (track_graph_) {
    AdjustSupports(t, +1);
    // Only the latest token of an activity can pair with a tail inverse.
    if (prev_last >= 0) Close(prev_last);
    if (!act.inverse && active_[token.proc]) Open(t);
  }
  if (act.inverse) {
    const int prev = PrevSurvivor(t);
    if (prev >= 0 && !tokens_[prev].act.inverse) MaybePair(prev, t);
  }
  Drain();
}

void ReductionIndex::Terminate(ProcessId pid) {
  auto it = vertex_of_.find(pid);
  if (it == vertex_of_.end()) return;
  const int v = it->second;
  active_[v] = false;
  for (int t : proc_tokens_[v]) Close(t);
}

void ReductionIndex::Open(int t) {
  std::vector<int>& list = open_[tokens_[t].service];
  open_slot_[t] = static_cast<int>(list.size());
  list.push_back(t);
}

void ReductionIndex::Close(int t) {
  const int slot = open_slot_[t];
  if (slot < 0) return;
  std::vector<int>& list = open_[tokens_[t].service];
  list[slot] = list.back();
  open_slot_[list[slot]] = slot;
  list.pop_back();
  open_slot_[t] = -1;
}

void ReductionIndex::MaybePair(int orig, int inv) {
  const int id = static_cast<int>(pairs_.size());
  Pair pair;
  pair.orig = orig;
  pair.inv = inv;
  // The blockers: surviving tokens strictly between the two, on services
  // that conflict with the original's.
  for (int partner : partners_[tokens_[orig].service]) {
    const std::vector<int>& list = service_tokens_[partner];
    for (auto it = std::upper_bound(list.begin(), list.end(), orig);
         it != list.end() && *it < inv; ++it) {
      if (tokens_[*it].survives() && Conflict(tokens_[orig], tokens_[*it])) {
        ++pair.blockers;
        blocks_[*it].push_back(id);
      }
    }
  }
  pairs_.push_back(pair);
  if (pair.blockers == 0) ready_.push_back(id);
}

void ReductionIndex::Cancel(int id) {
  if (pairs_[id].cancelled || pairs_[id].blockers != 0) return;
  pairs_[id].cancelled = true;
  const int orig = pairs_[id].orig;
  const int inv = pairs_[id].inv;
  RemoveToken(orig);
  RemoveToken(inv);
  // Tokens of one activity that stop alternating can pair across the
  // removed pair.
  const int before = PrevSurvivor(orig);
  const int after = NextSurvivor(inv);
  if (before >= 0 && after >= 0 && !tokens_[before].act.inverse &&
      tokens_[after].act.inverse) {
    MaybePair(before, after);
  }
}

void ReductionIndex::RemoveToken(int t) {
  tokens_[t].cancelled = true;
  for (int q : blocks_[t]) {
    if (!pairs_[q].cancelled && --pairs_[q].blockers == 0) {
      ready_.push_back(q);
    }
  }
  if (track_graph_) AdjustSupports(t, -1);
}

void ReductionIndex::Drain() {
  while (!ready_.empty()) {
    const int id = ready_.back();
    ready_.pop_back();
    Cancel(id);
  }
}

void ReductionIndex::AddSupport(int from, int to, int delta) {
  auto [it, fresh] = edge_slot_.try_emplace(
      PairKey(from, to), static_cast<int>(support_.size()));
  if (fresh) {
    support_.push_back(0);
    out_[from].emplace_back(to, it->second);
  }
  int& support = support_[it->second];
  const bool had = support > 0;
  support += delta;
  if (!had && support > 0) {
    if (graph_state_ == GraphState::kAcyclic) new_edges_.emplace_back(from, to);
  } else if (had && support == 0 && graph_state_ == GraphState::kCyclic) {
    graph_state_ = GraphState::kUnknown;
  }
}

// Token `t` starts (+1) or stops (-1) surviving: every surviving token it
// conflicts with gains or loses one supporting pair, and so do the open
// originals before it.
void ReductionIndex::AdjustSupports(int t, int delta) {
  const Token& token = tokens_[t];
  for (int partner : partners_[token.service]) {
    for (int k : service_tokens_[partner]) {
      const Token& other = tokens_[k];
      if (k == t || !other.survives() || other.proc == token.proc) continue;
      if (k < t) {
        AddSupport(other.proc, token.proc, delta);
      } else {
        AddSupport(token.proc, other.proc, delta);
      }
    }
  }
  for (int partner : partners_[token.service]) {
    for (int o : open_[partner]) {
      if (o < t && tokens_[o].proc != token.proc) conflicts_after_[o] += delta;
    }
  }
}

std::vector<ActivityInstance> ReductionIndex::Residual() const {
  std::vector<ActivityInstance> residual;
  for (const Token& token : tokens_) {
    if (token.survives()) residual.push_back(token.act);
  }
  return residual;
}

Dag ReductionIndex::BuildGraph() const {
  Dag graph(static_cast<int>(pids_.size()));
  std::vector<int> later;
  for (int i = 0; i < static_cast<int>(tokens_.size()); ++i) {
    const Token& token = tokens_[i];
    if (!token.survives()) continue;
    later.clear();
    for (int partner : partners_[token.service]) {
      const std::vector<int>& list = service_tokens_[partner];
      for (auto it = std::upper_bound(list.begin(), list.end(), i);
           it != list.end(); ++it) {
        const Token& other = tokens_[*it];
        if (other.survives() && other.proc != token.proc) later.push_back(*it);
      }
    }
    std::sort(later.begin(), later.end());
    for (int j : later) graph.AddEdge(token.proc, tokens_[j].proc);
  }
  return graph;
}

template <typename Neighbors>
bool ReductionIndex::FindCycle(const std::vector<int>& roots,
                               Neighbors&& neighbors,
                               std::vector<int>* cycle) {
  enum : uint8_t { kWhite, kGray, kBlack };
  const int stamp = ++dfs_stamp_;
  auto color = [&](int v) -> uint8_t& {
    VertexScratch& scratch = vertex_scratch_[v];
    if (scratch.color_stamp != stamp) {
      scratch.color_stamp = stamp;
      scratch.color = kWhite;
    }
    return scratch.color;
  };
  struct Frame {
    int vertex;
    size_t begin;  // this vertex's successors are pending[begin, end)
    size_t next;
    size_t end;
  };
  std::vector<Frame> stack;
  std::vector<int> pending;
  auto push = [&](int v) {
    color(v) = kGray;
    const size_t begin = pending.size();
    neighbors(v, &pending);
    stack.push_back({v, begin, begin, pending.size()});
  };
  for (int root : roots) {
    if (color(root) != kWhite) continue;
    push(root);
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next == top.end) {
        color(top.vertex) = kBlack;
        pending.resize(top.begin);
        stack.pop_back();
        continue;
      }
      const int next = pending[top.next++];
      const uint8_t next_color = color(next);
      if (next_color == kWhite) {
        push(next);
      } else if (next_color == kGray) {
        cycle->clear();
        size_t from = stack.size();
        while (stack[from - 1].vertex != next) --from;
        for (size_t f = from - 1; f < stack.size(); ++f) {
          cycle->push_back(stack[f].vertex);
        }
        cycle->push_back(next);
        return true;
      }
    }
  }
  return false;
}

ReductionIndex::GraphState ReductionIndex::ResolveGraphState() {
  std::vector<int> cycle;
  auto successors = [this](int v, std::vector<int>* out) {
    for (const auto& [to, slot] : out_[v]) {
      if (support_[slot] > 0) out->push_back(to);
    }
  };
  if (graph_state_ == GraphState::kAcyclic && !new_edges_.empty()) {
    // The graph was acyclic before these edges: a cycle must close through
    // one of them, so it suffices to search from their targets.
    std::vector<int> roots;
    for (const auto& [from, to] : new_edges_) roots.push_back(to);
    std::sort(roots.begin(), roots.end());
    roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
    if (FindCycle(roots, successors, &cycle)) {
      graph_state_ = GraphState::kCyclic;
    }
  }
  new_edges_.clear();
  if (graph_state_ == GraphState::kUnknown) {
    std::vector<int> all(pids_.size());
    for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<int>(v);
    graph_state_ = FindCycle(all, successors, &cycle) ? GraphState::kCyclic
                                                      : GraphState::kAcyclic;
  }
  return graph_state_;
}

ReductionIndex::Verdict ReductionIndex::ReducesWithTail(
    const std::vector<TailStep>& tail, std::vector<ProcessId>* cycle) {
  if (irregular_) return Verdict::kIrregular;
  const GraphState base = ResolveGraphState();
  const int stamp = ++trial_stamp_;

  // The tail's tokens, in the merge order of CompletionBuilder (Lemma 2/3):
  // every inverse precedes every forward step, and the inverses follow the
  // latest tokens of their activities — originals, one each — in reverse
  // order. Anything else is left to the reference.
  struct TailPair {
    int orig;    // token index
    size_t inv;  // tail index
    bool cancelled;
  };
  std::vector<Token> tail_tokens;
  tail_tokens.reserve(tail.size());
  std::vector<TailPair> pairs;
  bool forward_seen = false;
  for (const TailStep& step : tail) {
    Token token;
    token.act = step.act;
    token.proc = AddProcess(step.act.process);
    token.service = LocalService(step.service);
    if (effect_free_[token.service]) continue;  // rule 3
    const size_t i = tail_tokens.size();
    tail_tokens.push_back(token);
    const int last = LastOfActivity(token.act, token.proc);
    if (token.act.inverse) {
      if (forward_seen || last < 0 || tokens_[last].act.inverse ||
          (!pairs.empty() && last >= pairs.back().orig)) {
        return Verdict::kIrregular;
      }
      tokens_[last].trial = stamp;
      pairs.push_back({last, i, false});
    } else {
      forward_seen = true;
      // A forward step re-executes an activity only after its inverse.
      if (last >= 0 && !tokens_[last].act.inverse &&
          tokens_[last].trial != stamp) {
        return Verdict::kIrregular;
      }
    }
  }

  // Cancellation fixpoint over the tail pairs, settled in one pass in tail
  // order. A pair's blockers are the surviving tokens after its original
  // that conflict with it, and the tail's inverses before its own that do;
  // the only ones the trial can remove are the pairs before it in tail
  // order (later originals), which are settled by then. Such a pair q that
  // conflicts with p (different process) blocks p twice — its original
  // is among p's conflicts_after_, its inverse precedes p's — unless q
  // cancelled, then not at all.
  //
  // The trial never cancels an appended pair: a token x blocking an
  // appended pair (u, v) conflicts with v as well (v is u's inverse) and v
  // follows x, so x's own tail pair stays blocked for as long as (u, v)
  // does.
  std::vector<int> removed;
  std::vector<bool> tail_gone(tail_tokens.size(), false);
  for (size_t p = 0; p < pairs.size(); ++p) {
    const Token& x = tokens_[pairs[p].orig];
    int blockers = conflicts_after_[pairs[p].orig];
    for (int partner : partners_[x.service]) {
      ServiceScratch& scratch = service_scratch_[partner];
      if (scratch.stamp == stamp) blockers += scratch.balance;
    }
    VertexScratch& own = vertex_scratch_[x.proc];
    if (own.pairs_stamp != stamp) {
      own.pairs_stamp = stamp;
      own.pairs.clear();
    }
    for (size_t q : own.pairs) {  // same-process pairs never block
      if (ServicesConflict(x.service, tokens_[pairs[q].orig].service)) {
        blockers -= pairs[q].cancelled ? -1 : 1;
      }
    }
    pairs[p].cancelled = blockers == 0;
    own.pairs.push_back(p);
    ServiceScratch& mine = service_scratch_[x.service];
    if (mine.stamp != stamp) {
      mine.stamp = stamp;
      mine.balance = 0;
      mine.tail.clear();
    }
    mine.balance += pairs[p].cancelled ? -1 : 1;
    if (pairs[p].cancelled) {
      tokens_[pairs[p].orig].cancelled = true;
      removed.push_back(pairs[p].orig);
      tail_gone[pairs[p].inv] = true;
    }
  }

  // The residual graph: the maintained edges, re-checked exactly where the
  // trial removed a token of an endpoint, plus the edges into the tail.
  for (int t : removed) vertex_scratch_[tokens_[t].proc].touched = stamp;
  std::vector<int> heads;  // vertices owning surviving tail tokens
  for (size_t i = 0; i < tail_tokens.size(); ++i) {
    if (tail_gone[i]) continue;
    const Token& token = tail_tokens[i];
    VertexScratch& vertex = vertex_scratch_[token.proc];
    if (vertex.head_stamp != stamp) {
      vertex.head_stamp = stamp;
      vertex.head_tail.clear();
      heads.push_back(token.proc);
    }
    vertex.head_tail.push_back(i);
    ServiceScratch& service = service_scratch_[token.service];
    if (service.stamp != stamp) {
      service.stamp = stamp;
      service.balance = 0;
      service.tail.clear();
    }
    service.tail.emplace_back(token.proc, static_cast<int>(i));
  }
  auto exact_edge = [&](int u, int v) {
    for (int x : proc_tokens_[u]) {
      if (!tokens_[x].survives()) continue;
      for (int y : proc_tokens_[v]) {
        if (y > x && tokens_[y].survives() &&
            ServicesConflict(tokens_[x].service, tokens_[y].service)) {
          return true;
        }
      }
    }
    return false;
  };
  // Edges from `u` into the tail: a surviving token of u before a
  // conflicting surviving tail token of another process.
  auto tail_successors = [&](int u, int after, int service,
                             std::vector<int>* out) {
    for (int partner : partners_[service]) {
      const ServiceScratch& scratch = service_scratch_[partner];
      if (scratch.stamp != stamp) continue;
      for (const auto& [v, index] : scratch.tail) {
        VertexScratch& target = vertex_scratch_[v];
        if (v == u || index <= after || target.edge_mark == edge_mark_) {
          continue;
        }
        target.edge_mark = edge_mark_;
        out->push_back(v);
      }
    }
  };
  auto successors = [&](int u, std::vector<int>* out) {
    ++edge_mark_;
    const bool u_touched = vertex_scratch_[u].touched == stamp;
    for (const auto& [v, slot] : out_[u]) {
      if (support_[slot] == 0) continue;
      if ((u_touched || vertex_scratch_[v].touched == stamp) &&
          !exact_edge(u, v)) {
        continue;
      }
      out->push_back(v);
    }
    for (int x : proc_tokens_[u]) {
      if (tokens_[x].survives()) {
        tail_successors(u, -1, tokens_[x].service, out);
      }
    }
    if (vertex_scratch_[u].head_stamp == stamp) {
      for (size_t i : vertex_scratch_[u].head_tail) {
        tail_successors(u, static_cast<int>(i), tail_tokens[i].service, out);
      }
    }
  };
  // Without a cycle among the appended tokens, a cycle must enter the tail.
  std::vector<int> roots = heads;
  if (base != GraphState::kAcyclic) {
    roots.resize(pids_.size());
    for (size_t v = 0; v < roots.size(); ++v) roots[v] = static_cast<int>(v);
  }
  std::vector<int> vertex_cycle;
  const bool cyclic = FindCycle(roots, successors, &vertex_cycle);

  for (int t : removed) tokens_[t].cancelled = false;

  if (!cyclic) return Verdict::kReducible;
  cycle->clear();
  for (int v : vertex_cycle) cycle->push_back(pids_[v]);
  return Verdict::kIrreducible;
}

}  // namespace tpm
