#ifndef TPM_CORE_REDUCTION_INDEX_H_
#define TPM_CORE_REDUCTION_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/dag.h"
#include "core/activity.h"
#include "core/completed_schedule.h"
#include "core/conflict.h"

namespace tpm {

/// Indexed state of the reduction rules of Def. 9 over a growing sequence
/// of activity tokens (the activity events of a completed schedule, minus
/// aborted invocations). ReduceCompletedSchedule appends a whole completed
/// schedule; the one-pass PRED check appends S̃'s expanded prefix event by
/// event and asks, after each event, whether the prefix plus the tail of
/// completions reduces (`ReducesWithTail`).
///
/// * Compensation pairs (rule 2 with rule 1): an original and the next
///   surviving token of the same (process, activity) when that token is an
///   inverse. Each pair counts its *blockers* — surviving tokens between
///   the two that conflict with it — and each token lists the pairs it
///   blocks. A pair cancels when its count reaches zero; cancelling only
///   ever removes tokens, so counts only fall and the fixpoint does not
///   depend on the order of the worklist.
/// * Rule 3 is the caller's for appended tokens: a token is appended
///   `present == false` when it is an effect-free activity of a process
///   that has not committed. The index never flips presence; a caller
///   whose committed set changes rebuilds it.
/// * Conflicts are tested through a local, dense copy of the relation over
///   the services seen, and per-service token lists give every token's
///   conflicting accessors without comparing all pairs.
///
/// With `track_graph`, the index also keeps the process conflict graph of
/// the surviving tokens (support count per ordered process pair) and
/// whether it is acyclic, plus, for every original that is the latest
/// token of its activity in an active process, how many surviving tokens
/// after it conflict with it — that original's blockers should the tail
/// compensate it.
class ReductionIndex {
 public:
  enum class Verdict {
    kReducible,
    kIrreducible,
    /// Some activity's tokens do not alternate original, inverse,
    /// original, ... (only schedules built with legality checks off do
    /// that), or the tail is not in Lemma 2 order. The one-pass tail
    /// check does not handle either.
    kIrregular,
  };

  ReductionIndex(const ConflictSpec& spec, bool track_graph)
      : spec_(&spec), track_graph_(track_graph) {}

  /// Interns `pid` as a graph vertex (vertices are numbered in call order)
  /// and returns it. Idempotent.
  int AddProcess(ProcessId pid);

  /// Appends the next token and cancels every pair this makes cancellable.
  void Append(const ActivityInstance& act, ServiceId service, bool present);

  /// Marks `pid` terminated: the tail never compensates its activities.
  void Terminate(ProcessId pid);

  /// Some activity's tokens do not alternate original, inverse, ...: every
  /// later trial answers kIrregular.
  bool irregular() const { return irregular_; }

  /// Surviving tokens, in order.
  std::vector<ActivityInstance> Residual() const;

  /// The process conflict graph over the surviving tokens, over vertices
  /// [0, num_processes). Edges are inserted in order of their first
  /// conflicting token pair (earlier token first, then later token), which
  /// fixes the graph's successor order.
  Dag BuildGraph() const;

  /// Requires `track_graph`. Decides whether the tokens followed by `tail`
  /// (CompletionBuilder::Tail) reduce to a serial schedule. The
  /// tail's processes are active, hence not committed: rule 3 drops its
  /// effect-free steps.
  /// Pairs between the tail's inverses and the latest originals before
  /// them cancel to a fixpoint (never unblocking an appended pair, see the
  /// implementation); the index is restored afterwards. On kIrreducible,
  /// `cycle` holds a process cycle of the residual (first == last).
  Verdict ReducesWithTail(const std::vector<TailStep>& tail,
                          std::vector<ProcessId>* cycle);

 private:
  struct Token {
    ActivityInstance act;
    int proc = 0;
    int service = 0;
    int key = 0;
    bool present = true;
    bool cancelled = false;
    /// Stamp of the last tail trial that paired this original.
    int trial = 0;
    bool survives() const { return present && !cancelled; }
  };
  /// Per-vertex and per-service scratch of the tail trial and the graph
  /// searches; an entry is valid when its stamp is the current one.
  struct VertexScratch {
    int touched = 0;
    int pairs_stamp = 0;
    std::vector<size_t> pairs;  // settled tail pairs of this process
    int head_stamp = 0;
    std::vector<size_t> head_tail;  // surviving tail tokens
    int edge_mark = 0;
    int color_stamp = 0;
    uint8_t color = 0;
  };
  struct ServiceScratch {
    int stamp = 0;
    /// Settled tail pairs of this service: +1 each blocking, -1 each
    /// cancelled.
    int balance = 0;
    std::vector<std::pair<int, int>> tail;  // (vertex, tail index)
  };
  struct Pair {
    int orig = 0;
    int inv = 0;
    int blockers = 0;
    bool cancelled = false;
  };
  enum class GraphState { kAcyclic, kCyclic, kUnknown };

  int LocalService(ServiceId service);
  bool ServicesConflict(int a, int b) const {
    const auto& row = conflict_rows_[a];
    const size_t word = static_cast<size_t>(b) >> 6;
    return word < row.size() && ((row[word] >> (b & 63)) & 1u) != 0;
  }
  bool Conflict(const Token& a, const Token& b) const {
    return a.proc != b.proc && ServicesConflict(a.service, b.service);
  }
  // Index of the token list of `act`'s (process, activity), created on
  // first use; LastOfActivity returns the list's latest token, or -1.
  int KeyOf(const ActivityInstance& act, int proc);
  int LastOfActivity(const ActivityInstance& act, int proc) const;

  // Surviving neighbours of the pair list of token `t`'s activity.
  int PrevSurvivor(int t) const;
  int NextSurvivor(int t) const;
  void MaybePair(int orig, int inv);
  void Cancel(int pair);
  void RemoveToken(int t);
  void Drain();
  void AddSupport(int from, int to, int delta);
  void AdjustSupports(int t, int delta);
  void Open(int t);
  void Close(int t);

  // Iterative DFS from `roots` over `neighbors(vertex, &out)`. Returns true
  // and fills `cycle` (vertices, first == last) on a back edge.
  template <typename Neighbors>
  bool FindCycle(const std::vector<int>& roots, Neighbors&& neighbors,
                 std::vector<int>* cycle);
  GraphState ResolveGraphState();

  const ConflictSpec* spec_;
  bool track_graph_;
  bool irregular_ = false;

  std::unordered_map<ProcessId, int> vertex_of_;
  std::vector<ProcessId> pids_;
  std::vector<bool> active_;

  std::unordered_map<ServiceId, int> local_of_;
  std::vector<ServiceId> services_;
  std::vector<std::vector<int>> partners_;
  std::vector<bool> effect_free_;
  std::vector<std::vector<uint64_t>> conflict_rows_;

  std::vector<std::vector<int>> vertex_keys_;  // vertex -> activity -> key
  std::vector<std::vector<int>> key_tokens_;

  std::vector<Token> tokens_;
  std::vector<std::vector<int>> service_tokens_;
  std::vector<std::vector<int>> proc_tokens_;
  std::vector<std::vector<int>> blocks_;  // token -> pairs it blocks
  std::vector<Pair> pairs_;
  std::vector<int> ready_;

  // --- track_graph ---
  /// Support (number of conflicting surviving token pairs) per ordered
  /// process pair, by slot; `out_` lists each vertex's (successor, slot),
  /// including pairs whose support fell back to zero.
  std::unordered_map<uint64_t, int> edge_slot_;
  std::vector<int> support_;
  std::vector<std::vector<std::pair<int, int>>> out_;
  std::vector<std::pair<int, int>> new_edges_;
  GraphState graph_state_ = GraphState::kAcyclic;
  /// Latest-of-their-activity originals of active processes, per service,
  /// with each token's slot in its list (-1: not open), and for each token
  /// the number of surviving conflicting tokens after it (kept for the
  /// open tokens).
  std::vector<std::vector<int>> open_;
  std::vector<int> open_slot_;
  std::vector<int> conflicts_after_;

  std::vector<VertexScratch> vertex_scratch_;
  std::vector<ServiceScratch> service_scratch_;
  int trial_stamp_ = 0;
  int edge_mark_ = 0;
  int dfs_stamp_ = 0;
};

}  // namespace tpm

#endif  // TPM_CORE_REDUCTION_INDEX_H_
